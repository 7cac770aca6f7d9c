package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// TestScoreBoundClosedFormC1 checks the closed form of Appendix C.2 on the
// Theorem C.1 instance: for the partial τ1^(1) (x = [1], σ = 1) with n = 2
// and unit weights, the optimal unseen location is y* = 1/3 and the
// geometric bound value is −4/3 − (seen score term 0).
func TestScoreBoundClosedFormC1(t *testing.T) {
	r1 := relation.MustNew("R1", 1, []relation.Tuple{
		{ID: "a", Score: 1, Vec: vec.Of(1)},
		{ID: "b", Score: math.Exp(-5), Vec: vec.Of(0)},
	})
	r2 := relation.MustNew("R2", 1, []relation.Tuple{
		{ID: "c", Score: 1, Vec: vec.Of(1)},
		{ID: "d", Score: 1, Vec: vec.Of(1.0 / 3.0)},
	})
	e, err := NewEngine([]relation.Source{
		scoreSource(t, r1), scoreSource(t, r2),
	}, Options{K: 1, Algorithm: TBRR, Query: vec.Of(0.0), Agg: defaultAgg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.step(0); err != nil { // pull τ1^(1)
		t.Fatal(err)
	}
	b := e.bound.(*tightScoreBounder)

	// Closed form: y* = q + (ν−q)·m·wµ/(m·wµ + n·wq) = 1·1/(1+2) = 1/3.
	geo := b.geo([]vec.Vector{vec.Of(1)}, 0)
	if math.Abs(geo-(-4.0/3.0)) > 1e-9 {
		t.Fatalf("geo = %v, want -4/3 (optimum at y* = 1/3)", geo)
	}
	// Subset {R1} (mask 1): ts_M = geo + ws·ln(lastScore of R2) = -4/3 + 0.
	if got := b.tM(1); math.Abs(got-(-4.0/3.0)) > 1e-9 {
		t.Fatalf("ts_M = %v, want -4/3", got)
	}
}

// TestQuickScoreGeoIsOptimal: the closed-form completion value is at least
// the value of any random completion placement (the unconstrained optimum
// of problem (39)).
func TestQuickScoreGeoIsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 5)
		ws, wq, wmu := in.fn.Weights()
		e, err := NewEngine(in.sources(t, relation.ScoreAccess), Options{
			K: in.k, Algorithm: TBRR, Query: in.q, Agg: in.fn,
		})
		if err != nil {
			return false
		}
		// Pull a few tuples round-robin.
		rr := &roundRobin{}
		for i := 0; i < 3+r.Intn(5); i++ {
			ri := rr.choose(e)
			if ri < 0 {
				break
			}
			if err := e.step(ri); err != nil {
				return false
			}
		}
		b, ok := e.bound.(*tightScoreBounder)
		if !ok {
			return false
		}
		// Random partial from a random non-empty subset.
		for mask, members := range b.members {
			m := len(members)
			if m == 0 {
				continue
			}
			xs := make([]vec.Vector, 0, m)
			var sumT float64
			okAll := true
			for _, j := range members {
				rs := e.rels[j]
				if rs.depth() == 0 {
					okAll = false
					break
				}
				tup := rs.tuples[r.Intn(rs.depth())]
				xs = append(xs, tup.Vec)
				sumT += ws * in.fn.TransformScore(tup.Score)
			}
			if !okAll {
				continue
			}
			geo := b.geo(xs, sumT)
			// Any random placement of the unseen points must not beat geo.
			u := e.n - m
			for trial := 0; trial < 15; trial++ {
				pts := make([]vec.Vector, 0, e.n)
				pts = append(pts, xs...)
				for k := 0; k < u; k++ {
					y := vec.New(e.dim)
					for c := range y {
						y[c] = r.NormFloat64() * 3
					}
					pts = append(pts, y)
				}
				mu := vec.Mean(pts...)
				val := sumT
				for _, pt := range pts {
					val -= wq*pt.Dist2(e.q) + wmu*pt.Dist2(mu)
				}
				if val > geo+1e-7 {
					t.Logf("seed %d mask %b: random completion %v beats closed form %v", seed, mask, val, geo)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickEpsilonApproximation: with slack ε the engine may stop earlier
// but every returned score is within ε of the exact one at the same rank.
// The guarantee is held on both ways a query runs: Engine.Run, and the
// bounded session every served query is (NewIterator with MaxBuffered =
// K, read until ErrIteratorPastBound), for all four algorithms under
// both bound schedules.
func TestQuickEpsilonApproximation(t *testing.T) {
	// session returns the first K results of a bounded session and its
	// sumDepths.
	session := func(in instance, kind relation.AccessKind, opts Options) ([]Combination, int) {
		opts.K, opts.Query, opts.Agg, opts.MaxBuffered = in.k, in.q, in.fn, in.k
		it, err := NewIterator(in.sources(t, kind), opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []Combination
		for {
			c, err := it.Next()
			if errors.Is(err, ErrIteratorPastBound) || errors.Is(err, ErrIteratorDone) {
				return out, it.Stats().SumDepths
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	batch := func(in instance, kind relation.AccessKind, opts Options) ([]Combination, int) {
		res := runAlgo(t, in, kind, opts)
		return res.Combinations, res.Stats.SumDepths
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 6)
		exact, err := Naive(in.rels, in.q, in.fn, in.k)
		if err != nil {
			return false
		}
		for _, eps := range []float64{0.5, 2.0} {
			for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
				for _, algo := range Algorithms {
					for _, eager := range []bool{false, true} {
						for _, path := range []struct {
							name string
							run  func(instance, relation.AccessKind, Options) ([]Combination, int)
						}{{"Run", batch}, {"session", session}} {
							got, depths := path.run(in, kind, Options{Algorithm: algo, EagerBounds: eager, Epsilon: eps})
							_, exactDepths := path.run(in, kind, Options{Algorithm: algo, EagerBounds: eager})
							where := fmt.Sprintf("seed %d eps %v %v %v eager=%v %s", seed, eps, kind, algo, eager, path.name)
							if len(got) != len(exact) {
								t.Logf("%s: %d results, want %d", where, len(got), len(exact))
								return false
							}
							if depths > exactDepths {
								t.Logf("%s: sumDepths %d > exact %d", where, depths, exactDepths)
								return false // approximation may never cost more I/O
							}
							for i := range got {
								if exact[i].Score-got[i].Score > eps+1e-7 {
									t.Logf("%s: rank %d score %v vs exact %v", where, i, got[i].Score, exact[i].Score)
									return false
								}
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEpsilonValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	in := randomInstance(r, 2, 3)
	_, err := NewEngine(in.sources(t, relation.DistanceAccess), Options{
		K: 1, Query: in.q, Agg: in.fn, Epsilon: -0.5,
	})
	if err == nil {
		t.Fatal("negative epsilon accepted")
	}
	_, err = NewEngine(in.sources(t, relation.DistanceAccess), Options{
		K: 1, Query: in.q, Agg: in.fn, Epsilon: math.NaN(),
	})
	if err == nil {
		t.Fatal("NaN epsilon accepted")
	}
}

// BenchmarkScoreBound is what the score-access tight bound costs: one
// TBPA run over score access at n = 3 and n = 4 on a fixed instance,
// reporting the geometric evaluations (qp-solves/op) and the partials the
// bound's walk reaches (partials/op) beside time and memory. Both counts
// are deterministic, so one iteration (-benchtime 1x) reads them exactly.
func BenchmarkScoreBound(b *testing.B) {
	for _, shape := range []struct{ n, size int }{{3, 200}, {4, 60}} {
		in := fixedInstance(rand.New(rand.NewSource(35)), shape.n, shape.size, 3, 10)
		b.Run(fmt.Sprintf("n=%d", shape.n), func(b *testing.B) {
			b.ReportAllocs()
			var solves, partials int64
			for i := 0; i < b.N; i++ {
				st := runAlgo(b, in, relation.ScoreAccess, Options{Algorithm: TBPA}).Stats
				solves += st.QPSolves
				partials += st.PartialsTracked
			}
			b.ReportMetric(float64(solves)/float64(b.N), "qp-solves/op")
			b.ReportMetric(float64(partials)/float64(b.N), "partials/op")
		})
	}
}

// refScoreBounder is the score-access tight bound as Appendix C states it,
// with no shortcut: every pull evaluates geo for every partial of
// PC(M−{i}) × {τ}, and every read of a cap takes its logarithm afresh. It
// borrows a tightScoreBounder only for geo and its scratch.
type refScoreBounder struct {
	b         *tightScoreBounder
	best      []float64 // per mask: max geo over PC(M)
	any       []bool
	exhausted int
	xs        []vec.Vector
}

func newRefScoreBounder(e *Engine) *refScoreBounder {
	b := e.bound.(*tightScoreBounder)
	r := &refScoreBounder{b: b, xs: make([]vec.Vector, e.n)}
	for range b.members {
		r.best = append(r.best, negInf)
		r.any = append(r.any, false)
	}
	r.best[0], r.any[0] = 0, true
	return r
}

func (r *refScoreBounder) wsT(sigma float64) float64 { return r.b.ws * r.b.fn.TransformScore(sigma) }

func (r *refScoreBounder) register(ri int) {
	e := r.b.e
	tau := e.rels[ri].tuples[e.rels[ri].depth()-1]
	for mask, members := range r.b.members {
		if mask&(1<<ri) == 0 {
			continue
		}
		xs := r.xs[:len(members)]
		// walk fixes member k and recurses; the pulled member is τ, and its
		// score term is added last, as the engine's walk adds it.
		var walk func(k int, acc float64)
		walk = func(k int, acc float64) {
			if k == len(members) {
				if g := r.b.geo(xs, acc+r.wsT(tau.Score)); g > r.best[mask] {
					r.best[mask] = g
				}
				r.any[mask] = true
				return
			}
			j := members[k]
			if j == ri {
				xs[k] = tau.Vec
				walk(k+1, acc)
				return
			}
			for _, t := range e.rels[j].tuples {
				xs[k] = t.Vec
				walk(k+1, acc+r.wsT(t.Score))
			}
		}
		walk(0, 0)
	}
}

func (r *refScoreBounder) registerExhausted(ri int) { r.exhausted |= 1 << ri }

func (r *refScoreBounder) tsM(mask int) float64 {
	if !r.any[mask] || mask&r.exhausted != r.exhausted {
		return negInf
	}
	v := r.best[mask]
	for _, j := range r.b.unseen[mask] {
		v += r.wsT(r.b.e.rels[j].lastScore())
	}
	return v
}

func (r *refScoreBounder) threshold() float64 {
	t := negInf
	for mask := range r.best {
		if tm := r.tsM(mask); tm > t {
			t = tm
		}
	}
	return t
}

func (r *refScoreBounder) potential(ri int) float64 {
	if r.b.e.rels[ri].exhausted {
		return negInf
	}
	pot := negInf
	for mask := range r.best {
		if tm := r.tsM(mask); mask&(1<<ri) == 0 && tm > pot {
			pot = tm
		}
	}
	return pot
}

// scoreWalkInstances are the exactness test's inputs: random instances at
// n = 2, 3 and 4, tie-heavy ones (scores from three values, coordinates
// on a coarse grid, so many partials share a separable bound and a geo
// value, and half of them without the µ term) and large-magnitude ones (identity scores up to 1e6, coordinates
// and proximity weights of 1e3, so the separable terms dwarf the scores),
// each under both score transforms, plus the identity suites' degenerate
// instances.
func scoreWalkInstances(r *rand.Rand) []instance {
	var out []instance
	both := func(rels []*relation.Relation, q vec.Vector, w agg.Weights, k int) {
		for _, tr := range []agg.ScoreTransform{agg.LogScore, agg.IdentityScore} {
			out = append(out, instance{rels: rels, q: q, fn: agg.MustEuclideanSum(w, tr), k: k})
		}
	}
	gen := func(n, size, d int, score func() float64, coord func() float64, maxScore float64) ([]*relation.Relation, vec.Vector) {
		rels := make([]*relation.Relation, n)
		for i := range rels {
			tuples := make([]relation.Tuple, size)
			for j := range tuples {
				v := vec.New(d)
				for c := range v {
					v[c] = coord()
				}
				tuples[j] = relation.Tuple{ID: fmt.Sprintf("t%d-%d", i, j), Score: score(), Vec: v}
			}
			rels[i] = relation.MustNew(fmt.Sprintf("R%d", i), maxScore, tuples)
		}
		q := vec.New(d)
		for c := range q {
			q[c] = coord()
		}
		return rels, q
	}
	sizes := map[int]int{2: 40, 3: 14, 4: 7}
	for trial := 0; trial < 4; trial++ {
		for n := 2; n <= 4; n++ {
			d := 1 + r.Intn(3)
			w := agg.Weights{Ws: 0.2 + r.Float64()*2, Wq: 0.2 + r.Float64()*2, Wmu: r.Float64() * 2}
			k := 1 + r.Intn(5)
			rels, q := gen(n, sizes[n], d, func() float64 { return 0.05 + 0.95*r.Float64() },
				func() float64 { return r.NormFloat64() * 3 }, 1)
			both(rels, q, w, k)
			levels := []float64{0.25, 0.5, 1}
			rels, q = gen(n, sizes[n], d, func() float64 { return levels[r.Intn(len(levels))] },
				func() float64 { return float64(r.Intn(3) - 1) }, 1)
			// Without the µ term, geo is its separable bound up to rounding:
			// the walk's slack is all that keeps a tie from being skipped.
			both(rels, q, agg.Weights{Ws: 1, Wq: 0.5, Wmu: 0.25 * float64(trial%2)}, k)
			rels, q = gen(n, sizes[n], d, func() float64 { return 1 + r.Float64()*1e6 },
				func() float64 { return r.NormFloat64() * 1e3 }, 1e6+1)
			both(rels, q, agg.Weights{Ws: 1, Wq: 1e3, Wmu: 1e3}, k)
		}
	}
	for _, in := range degenerateInstances() {
		w := in.fn.(*agg.EuclideanSum).W
		both(in.rels, in.q, w, in.k)
	}
	return out
}

// TestQuickScoreBoundWalkExact: the branch-and-bound walk keeps exactly
// the maximum a walk over every partial keeps. Two engines run in
// lockstep, one with the score-access tight bound and one whose bound is
// refScoreBounder; after every pull every subset's bestGeo, the
// threshold and every relation's potential must be bit-equal, and the
// runs must end with the same results, threshold and SumDepths.
func TestQuickScoreBoundWalkExact(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for ci, in := range scoreWalkInstances(r) {
		for _, algo := range []Algorithm{TBRR, TBPA} {
			name := fmt.Sprintf("case %d (n=%d, %v, %v)", ci, len(in.rels), in.fn, algo)
			opts := Options{K: in.k, Algorithm: algo, Query: in.q, Agg: in.fn}
			e, err := NewEngine(in.sources(t, relation.ScoreAccess), opts)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewEngine(in.sources(t, relation.ScoreAccess), opts)
			if err != nil {
				t.Fatal(err)
			}
			b := e.bound.(*tightScoreBounder)
			ref := newRefScoreBounder(oracle)
			oracle.bound = ref
			for pull := 0; !e.satisfied(); pull++ {
				ri := e.pull.choose(e)
				if rj := oracle.pull.choose(oracle); rj != ri {
					t.Fatalf("%s pull %d: chose R%d, reference chose R%d", name, pull, ri, rj)
				}
				if ri < 0 {
					break
				}
				if err := e.step(ri); err != nil {
					t.Fatal(err)
				}
				if err := oracle.step(ri); err != nil {
					t.Fatal(err)
				}
				for mask, g := range b.bestGeo {
					if math.Float64bits(g) != math.Float64bits(ref.best[mask]) {
						t.Fatalf("%s pull %d mask %b: bestGeo %v, reference %v", name, pull, mask, g, ref.best[mask])
					}
				}
				if math.Float64bits(e.t) != math.Float64bits(oracle.t) {
					t.Fatalf("%s pull %d: threshold %v, reference %v", name, pull, e.t, oracle.t)
				}
				for i := range e.rels {
					if p, want := b.potential(i), ref.potential(i); math.Float64bits(p) != math.Float64bits(want) {
						t.Fatalf("%s pull %d: potential(R%d) %v, reference %v", name, pull, i, p, want)
					}
				}
			}
			got, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := combosIdentical(got.Combinations, want.Combinations); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
				t.Fatalf("%s: final threshold %v, reference %v", name, got.Threshold, want.Threshold)
			}
			if got.Stats.SumDepths != want.Stats.SumDepths {
				t.Fatalf("%s: SumDepths %d, reference %d", name, got.Stats.SumDepths, want.Stats.SumDepths)
			}
			if got.Stats.QPSolves > want.Stats.QPSolves {
				t.Fatalf("%s: %d geo evaluations, more than the full walk's %d", name, got.Stats.QPSolves, want.Stats.QPSolves)
			}
		}
	}
}
