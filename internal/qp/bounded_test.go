package qp

import (
	"errors"
	"fmt"
)

// The oracle Solve14 is held to: a general primal active-set solver for
// convex quadratics with fixed variables and lower bounds, over the dense
// LU of matrix_test.go and lu_test.go. Test-only.

// ErrMaxIterations is returned when the active-set loop fails to converge,
// which indicates a non-convex or badly scaled problem.
var ErrMaxIterations = errors.New("qp: active-set iteration limit exceeded")

// Objective14 exposes the quadratic form of problem (14) for testing and
// bound evaluation.
func Objective14(wq, wmu float64, theta []float64) float64 { return quad14(wq, wmu, theta) }

// BoundedProblem is a convex quadratic program
//
//	minimize ½·xᵀQx + cᵀx
//	subject to x_i  = FixedVal_i  where Fixed_i
//	           x_i ≥ Lower_i      where HasLower_i
//
// Q must be symmetric positive semidefinite on the free subspace.
type BoundedProblem struct {
	Q        *Matrix
	C        []float64
	Fixed    []bool
	FixedVal []float64
	HasLower []bool
	Lower    []float64
}

// Validate checks structural consistency of the problem.
func (p *BoundedProblem) Validate() error {
	n := len(p.C)
	if p.Q.Rows() != n || p.Q.Cols() != n {
		return fmt.Errorf("qp: Q is %dx%d, want %dx%d", p.Q.Rows(), p.Q.Cols(), n, n)
	}
	if len(p.Fixed) != n || len(p.FixedVal) != n || len(p.HasLower) != n || len(p.Lower) != n {
		return fmt.Errorf("qp: constraint slices must all have length %d", n)
	}
	if !p.Q.IsSymmetric(1e-9 * (1 + p.Q.MaxAbs())) {
		return errors.New("qp: Q must be symmetric")
	}
	return nil
}

// SolveBounded solves the problem with a primal active-set method. The
// returned x is the optimizer; the second return is the objective value.
func SolveBounded(p *BoundedProblem) ([]float64, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(p.C)

	// Feasible start: fixed at their values, lower-bounded at their bounds,
	// free at zero.
	x := make([]float64, n)
	active := make([]bool, n) // lower bound treated as equality
	for i := 0; i < n; i++ {
		switch {
		case p.Fixed[i]:
			x[i] = p.FixedVal[i]
		case p.HasLower[i]:
			x[i] = p.Lower[i]
			active[i] = true
		}
	}

	const maxIter = 500
	for iter := 0; iter < maxIter; iter++ {
		// Solve the equality-constrained subproblem over free variables.
		free := freeIndices(p, active)
		xe, err := solveEquality(p, active, free, x)
		if err != nil {
			return nil, 0, err
		}
		if feasibleStep(p, free, x, xe) {
			copy(x, xe)
			// Check multipliers of active bounds: λ_i = (Qx + c)_i ≥ 0.
			g := grad(p, x)
			worst, worstIdx := -1e-10, -1
			for i := 0; i < n; i++ {
				if active[i] && g[i] < worst {
					worst, worstIdx = g[i], i
				}
			}
			if worstIdx < 0 {
				return x, objective(p, x), nil
			}
			active[worstIdx] = false
			continue
		}
		// Step toward xe, stopping at the first violated bound.
		alpha, blocking := 1.0, -1
		for _, i := range free {
			if !p.HasLower[i] {
				continue
			}
			dir := xe[i] - x[i]
			if dir >= -1e-15 {
				continue
			}
			a := (p.Lower[i] - x[i]) / dir
			if a < alpha {
				alpha, blocking = a, i
			}
		}
		for _, i := range free {
			x[i] += alpha * (xe[i] - x[i])
		}
		if blocking >= 0 {
			x[blocking] = p.Lower[blocking]
			active[blocking] = true
		}
	}
	return nil, 0, ErrMaxIterations
}

func freeIndices(p *BoundedProblem, active []bool) []int {
	var free []int
	for i := range p.C {
		if !p.Fixed[i] && !active[i] {
			free = append(free, i)
		}
	}
	return free
}

// solveEquality minimizes over the free coordinates with the others held at
// their current values: Q_FF x_F = −c_F − Q_FK x_K.
func solveEquality(p *BoundedProblem, active []bool, free []int, x []float64) ([]float64, error) {
	out := make([]float64, len(x))
	copy(out, x)
	k := len(free)
	if k == 0 {
		return out, nil
	}
	a := NewMatrix(k, k)
	b := make([]float64, k)
	for r, i := range free {
		rhs := -p.C[i]
		for j := 0; j < len(x); j++ {
			q := p.Q.At(i, j)
			if q == 0 {
				continue
			}
			if p.Fixed[j] || active[j] {
				rhs -= q * x[j]
			}
		}
		b[r] = rhs
		for c, j := range free {
			a.Set(r, c, p.Q.At(i, j))
		}
	}
	sol, err := SolveLinear(a, b)
	if err == ErrSingular {
		// PSD-singular on the free subspace: regularize minimally. The
		// regularized optimizer is a valid minimizer of the original when
		// the singular directions are objective-flat.
		for i := 0; i < k; i++ {
			a.Add(i, i, 1e-10*(1+a.MaxAbs()))
		}
		sol, err = SolveLinear(a, b)
	}
	if err != nil {
		return nil, err
	}
	for r, i := range free {
		out[i] = sol[r]
	}
	return out, nil
}

func feasibleStep(p *BoundedProblem, free []int, x, xe []float64) bool {
	for _, i := range free {
		if p.HasLower[i] && xe[i] < p.Lower[i]-1e-12 {
			return false
		}
	}
	return true
}

func grad(p *BoundedProblem, x []float64) []float64 {
	g := p.Q.MulVec(x)
	for i := range g {
		g[i] += p.C[i]
	}
	return g
}

func objective(p *BoundedProblem, x []float64) float64 {
	qx := p.Q.MulVec(x)
	var s float64
	for i := range x {
		s += 0.5*x[i]*qx[i] + p.C[i]*x[i]
	}
	return s
}

// Hessian14 builds the matrix H = w_q·I + w_µ·(I − 11ᵀ/n) of problem (14),
// for use with SolveBounded and in tests.
func Hessian14(wq, wmu float64, n int) *Matrix {
	h := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -wmu / float64(n)
			if i == j {
				v += wq + wmu
			}
			h.Set(i, j, v)
		}
	}
	return h
}
