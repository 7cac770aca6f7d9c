package agg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func randomCombo(r *rand.Rand, n, d int) (q vec.Vector, sigmas []float64, xs []vec.Vector) {
	q = vec.New(d)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	sigmas = make([]float64, n)
	xs = make([]vec.Vector, n)
	for i := range xs {
		sigmas[i] = 0.05 + 0.95*r.Float64()
		v := vec.New(d)
		for c := range v {
			v[c] = r.NormFloat64() * 2
		}
		xs[i] = v
	}
	return q, sigmas, xs
}

func testFunctions(r *rand.Rand) []Function {
	w := Weights{Ws: 0.1 + 2*r.Float64(), Wq: 0.1 + 2*r.Float64(), Wmu: 2 * r.Float64()}
	return []Function{
		MustEuclideanSum(w, LogScore),
		MustEuclideanSum(w, IdentityScore),
	}
}

// TestScoreScratchBitIdentical: the allocation-free scoring path must be
// indistinguishable from Score, bit for bit — the engine substitutes it
// on the formation hot path under a byte-identity contract.
func TestScoreScratchBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(4)
		d := 1 + r.Intn(4)
		q, sigmas, xs := randomCombo(r, n, d)
		mu := vec.New(d)
		for _, fn := range testFunctions(r) {
			want := fn.Score(q, sigmas, xs)
			got := fn.ScoreScratch(q, sigmas, xs, mu)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%v: ScoreScratch %v != Score %v", fn, got, want)
			}
		}
	}
}

// TestSoloBoundDominatesScore: the separable per-tuple bounds must sum to
// at least the full combination score — the soundness condition of
// score-floor pruning.
func TestSoloBoundDominatesScore(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(4)
		d := 1 + r.Intn(4)
		q, sigmas, xs := randomCombo(r, n, d)
		for _, fn := range testFunctions(r) {
			var ub float64
			for i, x := range xs {
				ub += fn.SoloBound(sigmas[i], x.Dist(q))
			}
			score := fn.Score(q, sigmas, xs)
			if score > ub+1e-9*(1+math.Abs(ub)) {
				t.Fatalf("%v: score %v exceeds solo bound %v", fn, score, ub)
			}
		}
	}
}
