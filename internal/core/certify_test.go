package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// matchFullSort runs in under both access kinds with each of algos
// through a batch run, a bounded session (MaxBuffered = K) and an open
// session, and holds each to the full sort of the cross product: the batch run and
// the bounded session to its first K, the open session to all of it,
// position by position, in score bits and tuple IDs. The instances it is
// given have no tied scores, so the order is unique.
func matchFullSort(t *testing.T, in instance, algos []Algorithm) {
	t.Helper()
	want, err := NaiveStream(in.rels, in.q, in.fn)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(c Combination) string {
		parts := make([]string, len(c.Tuples))
		for i, tp := range c.Tuples {
			parts[i] = tp.ID
		}
		return strings.Join(parts, " ")
	}
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		for _, algo := range algos {
			for _, mb := range []int{-1, in.k, 0} {
				surface := fmt.Sprintf("%v, %v, maxBuffered %d", algo, kind, mb)
				run := runSurface(t, in, kind, Options{Algorithm: algo}, mb)
				w := want
				if mb != 0 {
					w = want[:in.k]
				}
				if len(run.combs) != len(w) {
					t.Fatalf("%s: %d results, full sort has %d", surface, len(run.combs), len(w))
				}
				for i, c := range run.combs {
					if math.Float64bits(c.Score) != math.Float64bits(w[i].Score) || ids(c) != ids(w[i]) {
						t.Errorf("%s: result %d is [%s] at %g, full sort has [%s] at %g (threshold %g, depths %v)",
							surface, i, ids(c), c.Score, ids(w[i]), w[i].Score, run.threshold, run.stats.Depths)
					}
				}
			}
		}
	}
}

// TestStoppingTestHasNoAbsoluteSlack: scores of order 1e-10 sit far below
// any fixed absolute tolerance. After one pull from each relation the
// buffered a0·b0 scores 2e-10 and the bound is 7e-10; a stopping test that
// forgave 1e-9 stopped there, and every algorithm returned it. The true
// top-1 is a1·b0 at 6.99e-10, one pull deeper into R0.
func TestStoppingTestHasNoAbsoluteSlack(t *testing.T) {
	r0 := relation.MustNew("R0", 6e-10, []relation.Tuple{
		{ID: "a0", Score: 1e-10, Vec: vec.Of(0, 0)},
		{ID: "a1", Score: 6e-10, Vec: vec.Of(1e-6, 0)},
	})
	r1 := relation.MustNew("R1", 1e-10, []relation.Tuple{
		{ID: "b0", Score: 1e-10, Vec: vec.Of(0, 0)},
	})
	fn := agg.MustEuclideanSum(agg.Weights{Ws: 1, Wq: 1, Wmu: 0}, agg.IdentityScore)
	matchFullSort(t, instance{rels: []*relation.Relation{r0, r1}, q: vec.New(2), fn: fn, k: 1}, Algorithms)
}

// TestBoundsHoldWhereScoreAndDistanceCancel: every tuple sits at p, whose
// squared distance D from the query is about 1e9, and every score is D or
// D + u, u = ulp(D), so each term σ − D is 0 or u. R0 holds σ ∈ {D, D + u}
// under σ_max = D + u, R1 holds σ = D under σ_max = D; the true top-1
// pairs R0's D + u with R1's tuple and scores u. All four algorithms must
// return it under both access kinds. A corner cap read at a rounded
// distance squared back, fl(√D)², sat an ulp of D below the term a score
// adds, so the bound fell to −u under the buffered 0 and CBRR stopped one
// pull early. The distance tight bound summed the score terms w_s·T(σ)
// and the query terms apart, not the solo terms a score adds, and TBRR
// and TBPA certified the 0 at t = 0.
func TestBoundsHoldWhereScoreAndDistanceCancel(t *testing.T) {
	p := vec.Of(22360.003655, 22360.5)
	q := vec.New(2)
	d := p.Dist2(q)
	u := math.Nextafter(d, posInf) - d
	r0 := relation.MustNew("R0", d+u, []relation.Tuple{
		{ID: "r0-0", Score: d, Vec: p},
		{ID: "r0-1", Score: d + u, Vec: p},
	})
	r1 := relation.MustNew("R1", d, []relation.Tuple{
		{ID: "r1-0", Score: d, Vec: p},
	})
	fn := agg.MustEuclideanSum(agg.DefaultWeights(), agg.IdentityScore)
	matchFullSort(t, instance{rels: []*relation.Relation{r0, r1}, q: q, fn: fn, k: 1}, Algorithms)
}
