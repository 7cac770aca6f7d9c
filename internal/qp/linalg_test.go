package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatalf("At/Set/Add broken: %v", m)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
}

func TestMatrixFromRows(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 0) != 5 || m.At(0, 1) != 2 {
		t.Fatalf("MatrixFromRows wrong: %v", m)
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	MatrixFromRows([][]float64{{1}, {1, 2}})
}

func TestIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	NewMatrix(1, 1).At(1, 0)
}

func TestMulVec(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	v := a.MulVec([]float64{1, -1})
	if v[0] != -1 || v[1] != -1 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestIdentityAndAddScale(t *testing.T) {
	i2 := Identity(2)
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if got := i2.MulVec([]float64{7, -3}); got[0] != 7 || got[1] != -3 {
		t.Fatalf("I*x != x: %v", got)
	}
	s := a.Clone()
	s.Add(0, 0, i2.At(0, 0))
	s.Add(1, 1, i2.At(1, 1))
	if s.At(0, 0) != 2 || s.At(1, 1) != 5 || s.At(0, 1) != 2 {
		t.Fatalf("Add = %v", s)
	}
	sc := a.Clone().ScaleInPlace(2)
	if sc.At(1, 1) != 8 || a.At(1, 1) != 4 {
		t.Fatalf("ScaleInPlace = %v (orig %v)", sc, a)
	}
}

func TestIsSymmetric(t *testing.T) {
	if !Identity(3).IsSymmetric(0) {
		t.Error("identity not symmetric")
	}
	m := MatrixFromRows([][]float64{{1, 2}, {2.1, 1}})
	if m.IsSymmetric(0.01) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if !m.IsSymmetric(0.2) {
		t.Error("near-symmetric matrix rejected with loose tol")
	}
	if NewMatrix(2, 3).IsSymmetric(1) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := MatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLinear(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func randomMatrix(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}

// Property: LU solve produces small residuals on random well-conditioned
// systems (diagonally dominated to avoid near-singularity flakes).
func TestQuickLUResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(7)
		a := randomMatrix(r, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range b {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringSmoke(t *testing.T) {
	if s := Identity(2).String(); s == "" {
		t.Error("empty String()")
	}
}
