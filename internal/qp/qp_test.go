package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Paper Example 3.2 / Table 3, partial combination τ2^(1):
// fixed projection √2, unseen bounds δ1=1, δ3=2√2. Optimal θ = (1, 2√2)
// and the 1-D objective is 12.84 (t(τ) = −12.8 in the paper).
func TestSolve14PaperExampleTau2(t *testing.T) {
	s, err := Solve14(1, 1, []float64{math.Sqrt2}, []float64{1, 2 * math.Sqrt2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Unseen[0], 1, 1e-12) || !almostEq(s.Unseen[1], 2*math.Sqrt2, 1e-12) {
		t.Fatalf("unseen = %v", s.Unseen)
	}
	if !almostEq(s.Objective, 12.8378, 1e-3) {
		t.Fatalf("objective = %v, want ≈ 12.84", s.Objective)
	}
}

// Paper Table 3, empty partial combination ⟨⟩ with δ = (1, 2√2, 2√2):
// optimal θ1 = 1.131 (strictly above its bound), t(⟨⟩) = −19.2.
func TestSolve14PaperExampleEmptyPartial(t *testing.T) {
	s, err := Solve14(1, 1, nil, []float64{1, 2 * math.Sqrt2, 2 * math.Sqrt2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Unseen[0], 4*math.Sqrt2/5, 1e-9) { // ψ = wµ(δ2+δ3)/(3·2−2) = 4√2/5 ≈ 1.131
		t.Fatalf("θ1 = %v, want ≈ 1.1314", s.Unseen[0])
	}
	if !almostEq(s.Objective, 19.2, 0.05) {
		t.Fatalf("objective = %v, want ≈ 19.2", s.Objective)
	}
}

// Paper Example 3.2, partial τ1^(1)×τ3^(1): projections (−0.2236, 1.3416),
// unseen δ2 = 2√2 clamps.
func TestSolve14PaperExamplePair(t *testing.T) {
	s, err := Solve14(1, 1, []float64{-0.22360679, 1.34164079}, []float64{2 * math.Sqrt2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.Unseen[0], 2*math.Sqrt2, 1e-9) {
		t.Fatalf("θ2 = %v, want 2√2", s.Unseen[0])
	}
}

func TestSolve14NoUnseen(t *testing.T) {
	s, err := Solve14(2, 3, []float64{1, -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// wq·(1+1) + wµ·((1)²+(−1)²) = 4 + 12 = wait: θ̄=0, spread = 1+1=2 → 2·2+3·2 = 10.
	if !almostEq(s.Objective, 10, 1e-12) {
		t.Fatalf("objective = %v, want 10", s.Objective)
	}
}

func TestSolve14EmptyProblem(t *testing.T) {
	s, err := Solve14(1, 1, nil, nil)
	if err != nil || s.Objective != 0 || len(s.Theta) != 0 {
		t.Fatalf("empty problem: %+v err=%v", s, err)
	}
}

func TestSolve14BadWeights(t *testing.T) {
	if _, err := Solve14(-1, 1, nil, []float64{1}); err != ErrBadWeights {
		t.Fatalf("err = %v", err)
	}
	if _, err := Solve14(1, math.Inf(1), nil, []float64{1}); err != ErrBadWeights {
		t.Fatalf("err = %v", err)
	}
}

// With w_q = 0 and no fixed variables the objective only penalizes spread;
// the optimum sets all variables to the largest bound (objective 0).
func TestSolve14ZeroWqAllFree(t *testing.T) {
	s, err := Solve14(0, 1, nil, []float64{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Unseen {
		if !almostEq(v, 3, 1e-9) {
			t.Fatalf("unseen[%d] = %v, want 3 (all at max δ)", i, v)
		}
	}
	if !almostEq(s.Objective, 0, 1e-9) {
		t.Fatalf("objective = %v, want 0", s.Objective)
	}
}

// Interior optimum: with a tiny δ the free stationary value exceeds the
// bound, so no clamping happens.
func TestSolve14InteriorOptimum(t *testing.T) {
	s, err := Solve14(1, 1, []float64{6}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	// ψ = wµ·6/(2·2−1) = 2.
	if !almostEq(s.Unseen[0], 2, 1e-12) {
		t.Fatalf("unseen = %v, want 2", s.Unseen[0])
	}
}

func TestHessian14Structure(t *testing.T) {
	h := Hessian14(2, 3, 4)
	if !h.IsSymmetric(0) {
		t.Fatal("H not symmetric")
	}
	// Row sums must equal w_q (the 11ᵀ/n part cancels w_µ on row sums).
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += h.At(i, j)
		}
		if !almostEq(s, 2, 1e-12) {
			t.Fatalf("row %d sum = %v, want w_q = 2", i, s)
		}
	}
}

// Property: Solve14's objective equals θᵀHθ and its solution satisfies the
// KKT conditions (stationarity for free, feasibility + multiplier sign for
// clamped).
func TestQuickSolve14KKT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		wq := r.Float64() * 2
		wmu := r.Float64() * 2
		m, u := r.Intn(3), 1+r.Intn(4)
		fixed := make([]float64, m)
		for i := range fixed {
			fixed[i] = r.NormFloat64() * 3
		}
		lower := make([]float64, u)
		for i := range lower {
			lower[i] = r.Float64() * 4
		}
		s, err := Solve14(wq, wmu, fixed, lower)
		if err != nil {
			return false
		}
		n := m + u
		var sum float64
		for _, th := range s.Theta {
			sum += th
		}
		for i := 0; i < u; i++ {
			th := s.Unseen[i]
			if th < lower[i]-1e-9 {
				return false // infeasible
			}
			g := 2 * ((wq+wmu)*th - wmu*sum/float64(n))
			if th > lower[i]+1e-9 {
				// Free: stationarity.
				if math.Abs(g) > 1e-6*(1+math.Abs(g)) && math.Abs(g) > 1e-6 {
					return false
				}
			} else if g < -1e-6 {
				// Clamped: non-negative multiplier.
				return false
			}
		}
		// Objective consistent with the quadratic form.
		return almostEq(s.Objective, Objective14(wq, wmu, s.Theta), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Solve14 matches the general active-set solver on random
// instances (Q = 2H so that ½xᵀQx = θᵀHθ).
func TestQuickSolve14MatchesActiveSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		wq := 0.1 + r.Float64()*2 // keep strictly convex for the general solver
		wmu := r.Float64() * 2
		m, u := r.Intn(3), 1+r.Intn(4)
		n := m + u
		fixed := make([]float64, m)
		for i := range fixed {
			fixed[i] = r.NormFloat64() * 2
		}
		lower := make([]float64, u)
		for i := range lower {
			lower[i] = r.Float64() * 3
		}
		fast, err := Solve14(wq, wmu, fixed, lower)
		if err != nil {
			return false
		}
		p := &BoundedProblem{
			Q:        Hessian14(wq, wmu, n).ScaleInPlace(2),
			C:        make([]float64, n),
			Fixed:    make([]bool, n),
			FixedVal: make([]float64, n),
			HasLower: make([]bool, n),
			Lower:    make([]float64, n),
		}
		for i := 0; i < m; i++ {
			p.Fixed[i] = true
			p.FixedVal[i] = fixed[i]
		}
		for i := 0; i < u; i++ {
			p.HasLower[m+i] = true
			p.Lower[m+i] = lower[i]
		}
		x, obj, err := SolveBounded(p)
		if err != nil {
			return false
		}
		if !almostEq(obj, fast.Objective, 1e-6*(1+math.Abs(obj))) {
			return false
		}
		for i := range x {
			if !almostEq(x[i], fast.Theta[i], 1e-6*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Solve14 is at least as good as any random feasible point.
func TestQuickSolve14GlobalOptimum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		wq := r.Float64() * 2
		wmu := r.Float64() * 2
		m, u := r.Intn(3), 1+r.Intn(4)
		fixed := make([]float64, m)
		for i := range fixed {
			fixed[i] = r.NormFloat64() * 2
		}
		lower := make([]float64, u)
		for i := range lower {
			lower[i] = r.Float64() * 3
		}
		s, err := Solve14(wq, wmu, fixed, lower)
		if err != nil {
			return false
		}
		theta := make([]float64, m+u)
		copy(theta, fixed)
		for trial := 0; trial < 40; trial++ {
			for i := 0; i < u; i++ {
				theta[m+i] = lower[i] + r.Float64()*5
			}
			if Objective14(wq, wmu, theta) < s.Objective-1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolveBoundedSimple(t *testing.T) {
	// minimize (x−3)² + (y−1)² s.t. x ≥ 4, y free:
	// ½xᵀQx + cᵀx with Q = 2I, c = (−6, −2).
	p := &BoundedProblem{
		Q:        Identity(2).ScaleInPlace(2),
		C:        []float64{-6, -2},
		Fixed:    []bool{false, false},
		FixedVal: []float64{0, 0},
		HasLower: []bool{true, false},
		Lower:    []float64{4, 0},
	}
	x, _, err := SolveBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 4, 1e-9) || !almostEq(x[1], 1, 1e-9) {
		t.Fatalf("x = %v, want (4, 1)", x)
	}
}

func TestSolveBoundedReleasesConstraint(t *testing.T) {
	// minimize (x−3)² with x ≥ 1: the bound is initially active at the
	// start point but must be released to reach x = 3.
	p := &BoundedProblem{
		Q:        Identity(1).ScaleInPlace(2),
		C:        []float64{-6},
		Fixed:    []bool{false},
		FixedVal: []float64{0},
		HasLower: []bool{true},
		Lower:    []float64{1},
	}
	x, _, err := SolveBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-9) {
		t.Fatalf("x = %v, want 3", x)
	}
}

func TestSolveBoundedValidate(t *testing.T) {
	p := &BoundedProblem{Q: NewMatrix(2, 2), C: []float64{1}}
	if _, _, err := SolveBounded(p); err == nil {
		t.Fatal("mismatched problem accepted")
	}
	bad := &BoundedProblem{
		Q:        MatrixFromRows([][]float64{{1, 5}, {0, 1}}),
		C:        []float64{0, 0},
		Fixed:    make([]bool, 2),
		FixedVal: make([]float64, 2),
		HasLower: make([]bool, 2),
		Lower:    make([]float64, 2),
	}
	if _, _, err := SolveBounded(bad); err == nil {
		t.Fatal("asymmetric Q accepted")
	}
}
