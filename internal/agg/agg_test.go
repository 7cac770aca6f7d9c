package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Paper Table 1: the eight combination scores with ws = wq = wµ = 1, q = 0.
func TestPaperTable1Scores(t *testing.T) {
	e := MustEuclideanSum(DefaultWeights(), LogScore)
	q := vec.Of(0, 0)

	r1 := []struct {
		sigma float64
		x     vec.Vector
	}{{0.5, vec.Of(0, -0.5)}, {1.0, vec.Of(0, 1)}}
	r2 := []struct {
		sigma float64
		x     vec.Vector
	}{{1.0, vec.Of(1, 1)}, {0.8, vec.Of(-2, 2)}}
	r3 := []struct {
		sigma float64
		x     vec.Vector
	}{{1.0, vec.Of(-1, 1)}, {0.4, vec.Of(-2, -2)}}

	score := func(i, j, k int) float64 {
		return e.Score(q,
			[]float64{r1[i].sigma, r2[j].sigma, r3[k].sigma},
			[]vec.Vector{r1[i].x, r2[j].x, r3[k].x})
	}
	cases := []struct {
		i, j, k int
		want    float64
	}{
		{1, 0, 0, -7.0},
		{0, 0, 0, -8.4},
		{1, 1, 0, -13.9},
		{0, 1, 0, -16.3},
		{0, 0, 1, -21.0},
		{1, 0, 1, -22.6},
		{0, 1, 1, -28.9},
		{1, 1, 1, -29.5},
	}
	for _, c := range cases {
		if got := score(c.i, c.j, c.k); !almostEq(got, c.want, 0.05) {
			t.Errorf("S(τ1^%d × τ2^%d × τ3^%d) = %.2f, want %.1f", c.i+1, c.j+1, c.k+1, got, c.want)
		}
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Weights{
		{Ws: -1, Wq: 1, Wmu: 1},
		{Ws: 1, Wq: math.NaN(), Wmu: 1},
		{Ws: 1, Wq: 1, Wmu: math.Inf(1)},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewEuclideanSum(Weights{Ws: -1}, LogScore); err == nil {
		t.Error("NewEuclideanSum accepted bad weights")
	}
}

func TestTransforms(t *testing.T) {
	logE := MustEuclideanSum(DefaultWeights(), LogScore)
	idE := MustEuclideanSum(DefaultWeights(), IdentityScore)
	if got := logE.TransformScore(1); got != 0 {
		t.Errorf("ln(1) = %v", got)
	}
	if got := idE.TransformScore(0.7); got != 0.7 {
		t.Errorf("identity(0.7) = %v", got)
	}
	if LogScore.String() != "log" || IdentityScore.String() != "identity" {
		t.Error("transform strings wrong")
	}
	if ScoreTransform(7).String() == "" {
		t.Error("unknown transform empty string")
	}
}

func TestScorePanicsOnMismatch(t *testing.T) {
	e := MustEuclideanSum(DefaultWeights(), LogScore)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Score did not panic")
		}
	}()
	e.Score(vec.Of(0), []float64{1}, nil)
}

// Property: the monotonicity the corner bound relies on — SoloBound
// non-decreasing in σ and non-increasing in the query distance, so its
// value at a corner caps every tuple still unseen.
func TestQuickMonotonicity(t *testing.T) {
	fns := []Function{
		MustEuclideanSum(Weights{Ws: 1.5, Wq: 0.7, Wmu: 2}, LogScore),
		MustEuclideanSum(Weights{Ws: 1, Wq: 1, Wmu: 1}, IdentityScore),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sigma := 0.05 + r.Float64()*0.9
		dq := r.Float64() * 3
		dSigma := r.Float64() * 0.05
		dDist := r.Float64()
		for _, fn := range fns {
			base := fn.SoloBound(sigma, dq)
			if fn.SoloBound(sigma+dSigma, dq) < base-1e-12 {
				return false
			}
			if fn.SoloBound(sigma, dq+dDist) > base+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: translation invariance of EuclideanSum when query and points
// shift together.
func TestQuickTranslationInvariance(t *testing.T) {
	e := MustEuclideanSum(DefaultWeights(), LogScore)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		n := 2 + r.Intn(3)
		q := randVec(r, d)
		shift := randVec(r, d)
		xs := make([]vec.Vector, n)
		shifted := make([]vec.Vector, n)
		sigmas := make([]float64, n)
		for i := range xs {
			xs[i] = randVec(r, d)
			shifted[i] = xs[i].Add(shift)
			sigmas[i] = 0.1 + r.Float64()*0.9
		}
		a := e.Score(q, sigmas, xs)
		b := e.Score(q.Add(shift), sigmas, shifted)
		return almostEq(a, b, 1e-8*(1+math.Abs(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randVec(r *rand.Rand, d int) vec.Vector {
	v := vec.New(d)
	for i := range v {
		v[i] = r.NormFloat64() * 3
	}
	return v
}

// Property: adding spread (moving one point away from the centroid along
// the line through it) never increases the score when wµ > 0.
func TestQuickSpreadPenalty(t *testing.T) {
	e := MustEuclideanSum(Weights{Ws: 1, Wq: 0, Wmu: 1}, LogScore)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(3)
		q := vec.New(d)
		n := 3
		xs := make([]vec.Vector, n)
		sigmas := make([]float64, n)
		for i := range xs {
			xs[i] = randVec(r, d)
			sigmas[i] = 0.5
		}
		base := e.Score(q, sigmas, xs)
		mu := vec.Mean(xs...)
		// Move x0 further from the current centroid.
		dir := xs[0].Sub(mu)
		if dir.Norm() < 1e-9 {
			return true
		}
		far := append([]vec.Vector{xs[0].Add(dir)}, xs[1:]...)
		return e.Score(q, sigmas, far) <= base+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNames(t *testing.T) {
	if MustEuclideanSum(DefaultWeights(), LogScore).String() == "" {
		t.Error("empty euclidean name")
	}
}
