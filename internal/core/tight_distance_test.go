package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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
		for mask, ss := range b.subsets {
			if !b.completes(mask) {
				continue
			}
			for id := range ss.partials {
				if math.Abs(b.computeBound(mask, id)-tGlobal) > 1e-9 {
					continue
				}
				// Rebuild the reconstruction exactly as computeBound does.
				seen, nu := b.seen(mask, id)
				dir := b.baseDir
				if nu != nil {
					if d, ok := nu.Sub(e.q).Unit(); ok {
						dir = d
					}
				}
				fixed := make([]float64, len(seen))
				for k, x := range seen {
					fixed[k] = x.Sub(e.q).Dot(dir)
				}
				unseen := b.unseen[mask]
				lower := make([]float64, len(unseen))
				for k, j := range unseen {
					lower[k] = math.Sqrt(e.rels[j].last)
				}
				sol, err := qpSolve14(b.wq, b.wmu, fixed, lower)
				if err != nil {
					return false
				}
				// The seen tuples are the ones the partial's ranks name.
				sigmas := make([]float64, 0, e.n)
				xs := make([]vec.Vector, 0, e.n)
				for k, r := range ss.ranks.ranksAt(int32(id)) {
					tup := e.rels[b.members[mask][k]].tuples[r]
					sigmas = append(sigmas, tup.Score)
					xs = append(xs, tup.Vec)
				}
				for k, j := range unseen {
					y := e.q.AddScaled(sol[k], dir)
					// Feasibility: the witness respects distance access.
					if y.Dist(e.q) < math.Sqrt(e.rels[j].last)-1e-9 {
						return false
					}
					sigmas = append(sigmas, e.rels[j].src.Relation().MaxScore)
					xs = append(xs, y)
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

// TestDistBoundLazyLockstepEager: the lazy heap and the cached t_M values
// the subset lattice hands potential are exactly what the paper's eager
// schedule computes. Two engines, one lazy and one with EagerBounds, pull
// in lockstep over distance access; before every pull the threshold,
// every relation's potential and the relation chosen must be bit-equal,
// and the runs must end with the same results.
func TestDistBoundLazyLockstepEager(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	pulls := 0
	for seed := 0; seed < 200; seed++ {
		in := randomInstance(r, 4, 7)
		for _, algo := range []Algorithm{TBRR, TBPA} {
			name := fmt.Sprintf("instance %d (n=%d, %v)", seed, len(in.rels), algo)
			opts := Options{K: in.k, Algorithm: algo, Query: in.q, Agg: in.fn}
			lazy, err := NewEngine(in.sources(t, relation.DistanceAccess), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.EagerBounds = true
			eager, err := NewEngine(in.sources(t, relation.DistanceAccess), opts)
			if err != nil {
				t.Fatal(err)
			}
			for pull := 0; ; pull++ {
				if math.Float64bits(lazy.t) != math.Float64bits(eager.t) {
					t.Fatalf("%s pull %d: threshold %v, eager %v", name, pull, lazy.t, eager.t)
				}
				for i := range lazy.rels {
					if p, want := lazy.bound.potential(i), eager.bound.potential(i); math.Float64bits(p) != math.Float64bits(want) {
						t.Fatalf("%s pull %d: potential(R%d) %v, eager %v", name, pull, i, p, want)
					}
				}
				if lazy.satisfied() != eager.satisfied() {
					t.Fatalf("%s pull %d: satisfied %v, eager %v", name, pull, lazy.satisfied(), eager.satisfied())
				}
				if lazy.satisfied() {
					break
				}
				ri, rj := lazy.pull.choose(lazy), eager.pull.choose(eager)
				if ri != rj {
					t.Fatalf("%s pull %d: chose R%d, eager chose R%d", name, pull, ri, rj)
				}
				if ri < 0 {
					break
				}
				if err := lazy.step(ri); err != nil {
					t.Fatal(err)
				}
				if err := eager.step(ri); err != nil {
					t.Fatal(err)
				}
				pulls++
			}
			got, err := lazy.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := eager.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := combosIdentical(got.Combinations, want.Combinations); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Stats.QPSolves > want.Stats.QPSolves {
				t.Fatalf("%s: lazy solved %d QPs, eager %d", name, got.Stats.QPSolves, want.Stats.QPSolves)
			}
		}
	}
	t.Logf("%d pulls in lockstep", pulls)
}

// TestBreakdownTupleIDsFromRanks: a partial is labelled by the tuples it
// was formed from, even when two tuples of a relation share a vector.
func TestBreakdownTupleIDsFromRanks(t *testing.T) {
	q := vec.Of(0, 0)
	rels := []*relation.Relation{
		relation.MustNew("R1", 1, []relation.Tuple{
			{ID: "a", Score: 1, Vec: vec.Of(0, 0)},
			{ID: "b", Score: 0.5, Vec: vec.Of(0, 0)},
		}),
		relation.MustNew("R2", 1, []relation.Tuple{{ID: "c", Score: 1, Vec: vec.Of(1, 0)}}),
	}
	e, err := NewEngine(distanceSources(t, rels, q), Options{K: 1, Algorithm: TBRR, Query: q, Agg: defaultAgg()})
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range []int{0, 0, 1} {
		if err := e.step(ri); err != nil {
			t.Fatal(err)
		}
	}
	subsets, ok := e.TightBoundBreakdown()
	if !ok {
		t.Fatal("breakdown unavailable for tight engine")
	}
	var got []string
	for _, sb := range subsets {
		if len(sb.Members) == 1 && sb.Members[0] == 0 {
			for _, p := range sb.Partials {
				got = append(got, strings.Join(p.TupleIDs, "|"))
			}
		}
	}
	sort.Strings(got)
	if want := []string{"a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("partials of {R1} labelled %q, want %q", got, want)
	}
}

// BenchmarkDistBound is what the distance-access tight bound costs: one
// TBPA run over distance access at n = 3 and n = 4 on a fixed instance,
// reporting the QP solves (qp-solves/op) and the partials formed
// (partials/op) beside time and memory. Both counts are deterministic,
// so one iteration (-benchtime 1x) reads them exactly.
func BenchmarkDistBound(b *testing.B) {
	for _, shape := range []struct{ n, size int }{{3, 1000}, {4, 200}} {
		in := fixedInstance(rand.New(rand.NewSource(35)), shape.n, shape.size, 3, 10)
		b.Run(fmt.Sprintf("n=%d", shape.n), func(b *testing.B) {
			b.ReportAllocs()
			var solves, partials int64
			for i := 0; i < b.N; i++ {
				st := runAlgo(b, in, relation.DistanceAccess, Options{Algorithm: TBPA}).Stats
				solves += st.QPSolves
				partials += st.PartialsTracked
			}
			b.ReportMetric(float64(solves)/float64(b.N), "qp-solves/op")
			b.ReportMetric(float64(partials)/float64(b.N), "partials/op")
		})
	}
}
