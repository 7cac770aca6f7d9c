package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveStandardKnown(t *testing.T) {
	// maximize 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0
	// → min −3x − 2y with slacks; optimum x=4, y=0, value −12.
	a := [][]float64{
		{1, 1, 1, 0},
		{1, 3, 0, 1},
	}
	b := []float64{4, 6}
	c := []float64{-3, -2, 0, 0}
	x, v, status, err := SolveStandard(a, b, c)
	if err != nil || status != Optimal {
		t.Fatalf("status=%v err=%v", status, err)
	}
	if math.Abs(v-(-12)) > 1e-9 || math.Abs(x[0]-4) > 1e-9 {
		t.Fatalf("x=%v v=%v", x, v)
	}
}

func TestSolveStandardInfeasible(t *testing.T) {
	// x = 1 and x = 2 simultaneously.
	a := [][]float64{{1}, {1}}
	b := []float64{1, 2}
	c := []float64{0}
	_, _, status, err := SolveStandard(a, b, c)
	if err != nil || status != Infeasible {
		t.Fatalf("status=%v err=%v", status, err)
	}
}

func TestSolveStandardUnbounded(t *testing.T) {
	// min −x s.t. x − y = 0, x,y ≥ 0 — can grow without bound.
	a := [][]float64{{1, -1}}
	b := []float64{0}
	c := []float64{-1, 0}
	_, _, status, err := SolveStandard(a, b, c)
	if err != nil || status != Unbounded {
		t.Fatalf("status=%v err=%v", status, err)
	}
}

func TestSolveStandardNegativeRHS(t *testing.T) {
	// −x = −3 → x = 3.
	a := [][]float64{{-1}}
	b := []float64{-3}
	c := []float64{1}
	x, v, status, err := SolveStandard(a, b, c)
	if err != nil || status != Optimal {
		t.Fatalf("status=%v err=%v", status, err)
	}
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(v-3) > 1e-9 {
		t.Fatalf("x=%v v=%v", x, v)
	}
}

func TestSolveStandardShapeErrors(t *testing.T) {
	if _, _, _, err := SolveStandard([][]float64{{1}}, []float64{1, 2}, []float64{0}); err == nil {
		t.Error("rhs mismatch accepted")
	}
	if _, _, _, err := SolveStandard([][]float64{{1, 2}}, []float64{1}, []float64{0}); err == nil {
		t.Error("ragged row accepted")
	}
}

func TestSolveStandardDegenerateRedundantRows(t *testing.T) {
	// Duplicate constraints should not break phase transition.
	a := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	b := []float64{2, 2, 4}
	c := []float64{1, 0}
	x, v, status, err := SolveStandard(a, b, c)
	if err != nil || status != Optimal {
		t.Fatalf("status=%v err=%v", status, err)
	}
	if math.Abs(v) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("x=%v v=%v", x, v)
	}
}

func TestMinimizeLeqFreeVariables(t *testing.T) {
	// min x + y s.t. −x ≤ 2, −y ≤ 5 → x = −2, y = −5.
	a := [][]float64{{-1, 0}, {0, -1}}
	b := []float64{2, 5}
	c := []float64{1, 1}
	x, v, status, err := minimizeLeq(a, b, c)
	if err != nil || status != Optimal {
		t.Fatalf("status=%v err=%v", status, err)
	}
	if math.Abs(x[0]+2) > 1e-9 || math.Abs(x[1]+5) > 1e-9 || math.Abs(v+7) > 1e-9 {
		t.Fatalf("x=%v v=%v", x, v)
	}
}

func TestFeasibleHalfSpacesBasic(t *testing.T) {
	// x ≤ 1, −x ≤ −0.5 → [0.5, 1] non-empty.
	ok, err := FeasibleHalfSpaces([][]float64{{1}, {-1}}, []float64{1, -0.5})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// x ≤ 0, −x ≤ −1 → empty.
	ok, err = FeasibleHalfSpaces([][]float64{{1}, {-1}}, []float64{0, -1})
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestFeasibleHalfSpacesEdge(t *testing.T) {
	// No constraints: whole space.
	if ok, err := FeasibleHalfSpaces(nil, nil); err != nil || !ok {
		t.Fatalf("empty system: ok=%v err=%v", ok, err)
	}
	// Single half-space: always feasible.
	if ok, err := FeasibleHalfSpaces([][]float64{{1, 1}}, []float64{-100}); err != nil || !ok {
		t.Fatalf("single: ok=%v err=%v", ok, err)
	}
	// Degenerate touching: x ≤ 0 and −x ≤ 0 → {0} non-empty.
	if ok, err := FeasibleHalfSpaces([][]float64{{1}, {-1}}, []float64{0, 0}); err != nil || !ok {
		t.Fatalf("touching: ok=%v err=%v", ok, err)
	}
	// Shape error.
	if _, err := FeasibleHalfSpaces([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := FeasibleHalfSpaces([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestFeasibleHalfSpaces2D(t *testing.T) {
	// Triangle: x ≥ 0, y ≥ 0, x + y ≤ 1 — feasible.
	g := [][]float64{{-1, 0}, {0, -1}, {1, 1}}
	h := []float64{0, 0, 1}
	if ok, _ := FeasibleHalfSpaces(g, h); !ok {
		t.Fatal("triangle reported empty")
	}
	// Add x + y ≥ 3 → infeasible.
	g = append(g, []float64{-1, -1})
	h = append(h, -3)
	if ok, _ := FeasibleHalfSpaces(g, h); ok {
		t.Fatal("empty region reported feasible")
	}
}

// Property: FeasibleHalfSpaces agrees with a sampling + LP witness oracle
// on random low-dimensional systems.
func TestQuickFeasibleAgreesWithOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(3)
		u := 1 + r.Intn(8)
		g := make([][]float64, u)
		h := make([]float64, u)
		for i := range g {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			g[i] = row
			h[i] = r.NormFloat64()
		}
		got, err := FeasibleHalfSpaces(g, h)
		if err != nil {
			return false
		}
		// Oracle: minimize max violation via minimizeLeq on the epigraph
		// formulation min t s.t. G·y − t ≤ h.
		a := make([][]float64, u)
		for i := range a {
			row := make([]float64, d+1)
			copy(row, g[i])
			row[d] = -1
			a[i] = row
		}
		c := make([]float64, d+1)
		c[d] = 1
		_, v, status, err := minimizeLeq(a, h, c)
		if err != nil {
			return false
		}
		want := status == Unbounded || (status == Optimal && v <= 1e-9)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: when the system was built around a known interior point it is
// always reported feasible.
func TestQuickFeasibleWitnessConstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		u := 1 + r.Intn(12)
		y := make([]float64, d)
		for j := range y {
			y[j] = r.NormFloat64() * 5
		}
		g := make([][]float64, u)
		h := make([]float64, u)
		for i := range g {
			row := make([]float64, d)
			var dot float64
			for j := range row {
				row[j] = r.NormFloat64()
				dot += row[j] * y[j]
			}
			g[i] = row
			h[i] = dot + r.Float64() // slack ≥ 0 keeps y feasible
		}
		ok, err := FeasibleHalfSpaces(g, h)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// minimizeLeq solves  minimize cᵀx  s.t.  A·x ≤ b  with x free, by
// splitting x = u − v (u, v ≥ 0) and adding slack variables: the primal
// oracle FeasibleHalfSpaces' dual formulation is checked against.
func minimizeLeq(a [][]float64, b, c []float64) (x []float64, value float64, status Status, err error) {
	m := len(a)
	if len(b) != m {
		return nil, 0, 0, fmt.Errorf("lp: %d rows but %d rhs entries", m, len(b))
	}
	var n int
	if m > 0 {
		n = len(a[0])
	} else {
		n = len(c)
	}
	if len(c) != n {
		return nil, 0, 0, fmt.Errorf("lp: objective has %d entries, want %d", len(c), n)
	}
	// Standard form variables: u (n), v (n), s (m).
	cols := 2*n + m
	sa := make([][]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, cols)
		for j := 0; j < n; j++ {
			row[j] = a[i][j]
			row[n+j] = -a[i][j]
		}
		row[2*n+i] = 1
		sa[i] = row
	}
	sc := make([]float64, cols)
	for j := 0; j < n; j++ {
		sc[j] = c[j]
		sc[n+j] = -c[j]
	}
	z, v, status, err := SolveStandard(sa, b, sc)
	if err != nil || status != Optimal {
		return nil, 0, status, err
	}
	x = make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = z[j] - z[n+j]
	}
	return x, v, Optimal, nil
}
