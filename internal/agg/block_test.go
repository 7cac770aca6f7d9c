package agg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// TestScoreBlockBitIdentity: for both score transforms, every block
// width, every varying slot, and random geometry, ScoreBlock must equal a
// loop of ScoreScratch calls bit for bit — with qterms produced by QTerm,
// exactly as the engine caches them.
func TestScoreBlockBitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	aggs := []Function{
		MustEuclideanSum(Weights{Ws: 1, Wq: 1, Wmu: 1}, LogScore),
		MustEuclideanSum(Weights{Ws: 2, Wq: 0.5, Wmu: 3}, IdentityScore),
	}
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(3)
		d := 1 + r.Intn(4)
		blockW := 1 + r.Intn(9)
		fn := aggs[r.Intn(len(aggs))]
		vary := r.Intn(n)

		q := randVec(r, d)
		sigmas := make([]float64, n)
		xs := make([]vec.Vector, n)
		qterms := make([]float64, n)
		for i := 0; i < n; i++ {
			sigmas[i] = 0.1 + r.Float64()*5
			xs[i] = randVec(r, d)
			qterms[i] = fn.QTerm(i, sigmas[i], xs[i], q)
		}
		candSig := make([]float64, blockW)
		candXs := make([]vec.Vector, blockW)
		candQ := make([]float64, blockW)
		for j := 0; j < blockW; j++ {
			candSig[j] = 0.1 + r.Float64()*5
			candXs[j] = randVec(r, d)
			candQ[j] = fn.QTerm(vary, candSig[j], candXs[j], q)
		}

		var scr BlockScratch
		out := make([]float64, blockW)
		fn.ScoreBlock(q, qterms, xs, vary, candQ, candXs, &scr, out)

		mu := vec.New(d)
		scalarSig := append([]float64{}, sigmas...)
		scalarXs := append([]vec.Vector{}, xs...)
		for j := 0; j < blockW; j++ {
			scalarSig[vary] = candSig[j]
			scalarXs[vary] = candXs[j]
			want := fn.ScoreScratch(q, scalarSig, scalarXs, mu)
			if math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("trial %d (%v, n=%d d=%d vary=%d block=%d lane %d): block %v, scalar %v",
					trial, fn, n, d, vary, blockW, j, out[j], want)
			}
		}
	}
}
