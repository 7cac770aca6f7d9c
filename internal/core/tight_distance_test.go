package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/vec"
)

// buildEngineAtDepth pulls a few tuples round-robin on a random instance
// and returns the engine (tight distance bounder).
func buildEngineAtDepth(t testing.TB, r *rand.Rand) (*Engine, instance) {
	t.Helper()
	in := randomInstance(r, 3, 6)
	e, err := NewEngine(in.sources(t, relation.DistanceAccess), Options{
		K: in.k, Algorithm: TBRR, Query: in.q, Agg: in.fn,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr := &roundRobin{}
	pulls := 2 + r.Intn(8)
	for i := 0; i < pulls; i++ {
		ri := rr.choose(e)
		if ri < 0 {
			break
		}
		if err := e.step(ri); err != nil {
			t.Fatal(err)
		}
	}
	return e, in
}

// TestQuickTightnessWitness validates Theorem 3.2 constructively: for the
// subset and partial attaining the threshold, the reconstructed completion
// is feasible (unseen locations at distance ≥ δ_i) and scores exactly t.
func TestQuickTightnessWitness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e, in := buildEngineAtDepth(t, r)
		b := e.bound.(*tightDistBounder)
		tGlobal := b.threshold()
		if math.IsInf(tGlobal, -1) {
			return true
		}
		// Find the achieving subset/partial and rebuild its witness.
		for _, ss := range b.subsets {
			if !b.valid(ss) {
				continue
			}
			for id := range ss.partials {
				p := &ss.partials[id]
				b.computeBound(ss, p)
				if math.Abs(p.bound-tGlobal) > 1e-9 {
					continue
				}
				// Rebuild the reconstruction exactly as computeBound does.
				dir := b.baseDir
				if len(ss.members) > 0 {
					if d, ok := p.nu.Sub(e.q).Unit(); ok {
						dir = d
					}
				}
				fixed := make([]float64, len(p.xs))
				for k, x := range p.xs {
					fixed[k] = x.Sub(e.q).Dot(dir)
				}
				lower := make([]float64, len(ss.unseen))
				for k, j := range ss.unseen {
					lower[k] = e.rels[j].lastDist()
				}
				sol, err := qpSolve14(b.wq, b.wmu, fixed, lower)
				if err != nil {
					return false
				}
				sigmas := make([]float64, 0, e.n)
				xs := make([]vec.Vector, 0, e.n)
				for k, x := range p.xs {
					ri := ss.members[k]
					for _, tup := range e.rels[ri].tuples {
						if tup.Vec.Equal(x) {
							sigmas = append(sigmas, tup.Score)
							break
						}
					}
					xs = append(xs, x)
				}
				for k, j := range ss.unseen {
					y := e.q.AddScaled(sol[k], dir)
					// Feasibility: the witness respects distance access.
					if y.Dist(e.q) < e.rels[j].lastDist()-1e-9 {
						return false
					}
					sigmas = append(sigmas, e.rels[j].maxScore)
					xs = append(xs, y)
				}
				if len(sigmas) != e.n {
					return false
				}
				want := in.fn.Score(e.q, sigmas, xs)
				return math.Abs(want-tGlobal) <= 1e-7*(1+math.Abs(tGlobal))
			}
		}
		return false // threshold unachieved by any partial: not tight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
