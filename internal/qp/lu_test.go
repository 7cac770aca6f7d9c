package qp

import "math"

// LU is an LU factorization with partial pivoting: P·A = L·U, stored packed
// in a single matrix (unit lower triangle implicit).
type LU struct {
	lu    *Matrix
	pivot []int
}

// FactorLU computes the LU factorization of a square matrix A.
// It returns ErrSingular when a pivot is numerically zero relative to the
// scale of the matrix.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		panic("linalg: LU of non-square matrix")
	}
	n := a.Rows()
	lu := a.Clone()
	pivot := make([]int, n)
	scale := lu.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	tol := scale * 1e-14 * float64(n)

	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest remaining entry in column k.
		p := k
		best := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > best {
				best, p = a, i
			}
		}
		pivot[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[k*n+j], lu.data[p*n+j] = lu.data[p*n+j], lu.data[k*n+j]
			}
		}
		pv := lu.At(k, k)
		if math.Abs(pv) <= tol {
			return nil, ErrSingular
		}
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pv
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve solves A·x = b for the factored A. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows()
	if len(b) != n {
		panic("linalg: LU solve dimension mismatch")
	}
	x := make([]float64, n)
	copy(x, b)
	// Apply the row permutation.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / f.lu.At(i, i)
	}
	return x
}

// SolveLinear solves A·x = b directly (factor + solve).
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
