package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// cancellingInstance puts every tuple of every relation at p, with the
// query at the origin, so each tuple's score σ and its query term
// D = ‖p‖² nearly cancel and the centroid term is (all but) zero:
// relation i holds the scores D + k·u for the offsets k of offs[i], u
// being the spacing of floats at D, under σ_max = D + 8u, with identity
// scores and unit weights. Every score is then a few ulps of D, one
// rounding of D away from the per-tuple terms formation prunes with. It
// reports false when the inputs build no valid relation.
func cancellingInstance(p vec.Vector, offs [][]int, k int) (instance, bool) {
	q := vec.New(p.Dim())
	d := p.Dist2(q)
	u := math.Nextafter(d, posInf) - d
	rels := make([]*relation.Relation, len(offs))
	for i, ks := range offs {
		tuples := make([]relation.Tuple, len(ks))
		for j, off := range ks {
			tuples[j] = relation.Tuple{ID: fmt.Sprintf("t%d-%d", i, j), Score: d + float64(off)*u, Vec: p}
		}
		rel, err := relation.New(fmt.Sprintf("R%d", i), d+8*u, tuples)
		if err != nil {
			return instance{}, false
		}
		rels[i] = rel
	}
	fn := agg.MustEuclideanSum(agg.DefaultWeights(), agg.IdentityScore)
	return instance{rels: rels, q: q, fn: fn, k: k}, true
}

// surfaceRun is what one execution surface observably produced.
type surfaceRun struct {
	combs     []Combination
	threshold float64
	terminal  error
	stats     Stats
}

// runSurface runs in through a batch Engine.Run when maxBuffered is
// negative, else through a session with that MaxBuffered, emitting until
// the stream ends and then draining what it still holds.
func runSurface(t testing.TB, in instance, kind relation.AccessKind, opts Options, maxBuffered int) surfaceRun {
	t.Helper()
	if maxBuffered < 0 {
		res := runAlgo(t, in, kind, opts)
		return surfaceRun{combs: res.Combinations, threshold: res.Threshold, stats: res.Stats}
	}
	opts.Query, opts.Agg, opts.MaxBuffered = in.q, in.fn, maxBuffered
	it, err := NewIterator(in.sources(t, kind), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var run surfaceRun
	for {
		c, err := it.Next()
		if err != nil {
			run.terminal = err
			break
		}
		run.combs = append(run.combs, c)
	}
	for c, ok := it.DrainBest(); ok; c, ok = it.DrainBest() {
		run.combs = append(run.combs, c)
	}
	run.threshold, run.stats = it.Threshold(), it.Stats()
	return run
}

// pruneInvisible checks that score-floor pruning changes nothing algo
// produces over kind: a batch run, a bounded session (MaxBuffered = K)
// and an open session drained to the end each give the same combinations,
// threshold bits, terminal condition and schedule counters as their twin
// with pruning off.
func pruneInvisible(t testing.TB, in instance, kind relation.AccessKind, algo Algorithm) error {
	t.Helper()
	for _, mb := range []int{-1, in.k, 0} {
		opts := Options{Algorithm: algo}
		pruned := runSurface(t, in, kind, opts, mb)
		opts.disablePrune = true
		plain := runSurface(t, in, kind, opts, mb)
		surface := fmt.Sprintf("%v, %v, maxBuffered %d", algo, kind, mb)
		if err := combosIdentical(pruned.combs, plain.combs); err != nil {
			return fmt.Errorf("%s: %w", surface, err)
		}
		if math.Float64bits(pruned.threshold) != math.Float64bits(plain.threshold) {
			return fmt.Errorf("%s: threshold %v vs %v", surface, pruned.threshold, plain.threshold)
		}
		if !errors.Is(pruned.terminal, plain.terminal) {
			return fmt.Errorf("%s: terminal %v vs %v", surface, pruned.terminal, plain.terminal)
		}
		if err := statsIdentical(pruned.stats, plain.stats); err != nil {
			return fmt.Errorf("%s: %w", surface, err)
		}
	}
	return nil
}

// TestQuickPruneByteIdentityCancellingTerms targets pruning where each
// tuple's score and query terms cancel to a few ulps of their magnitude.
// The bound a pruned subtree fails must be the sum of the very terms its
// scores add: a per-tuple bound one ulp of D below the tuple's term, as
// squaring a rounded distance gives when fl(√D)² > D, cuts the true top
// combination of the fixed case below.
func TestQuickPruneByteIdentityCancellingTerms(t *testing.T) {
	fixed, ok := cancellingInstance(vec.Vector{22360.001462, 22360.5}, [][]int{{0, 1}, {0}}, 1)
	if !ok {
		t.Fatal("fixed case builds no relation")
	}
	res := runAlgo(t, fixed, relation.DistanceAccess, Options{Algorithm: CBRR})
	if len(res.Combinations) != 1 || res.Combinations[0].Ranks[0] != 1 || res.Combinations[0].Score != 0x1p-23 {
		t.Fatalf("fixed case: got %+v, want ranks [1 0] scoring 2^-23", res.Combinations)
	}
	cases := []instance{fixed}
	r := rand.New(rand.NewSource(46))
	for len(cases) < 40 {
		p := vec.Vector{22360 + r.Float64()*0.01, 22360.5}
		offs := make([][]int, 2+r.Intn(2))
		for i := range offs {
			offs[i] = make([]int, 2+r.Intn(5))
			for j := range offs[i] {
				offs[i][j] = r.Intn(4)
			}
		}
		in, ok := cancellingInstance(p, offs, 1+r.Intn(2))
		if !ok {
			t.Fatalf("generated case builds no relation: p %v, offsets %v", p, offs)
		}
		cases = append(cases, in)
	}
	for ci, in := range cases {
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				if err := pruneInvisible(t, in, kind, algo); err != nil {
					t.Fatalf("case %d: %v", ci, err)
				}
			}
		}
	}
}

// FuzzPruneByteIdentity searches cancelling instances for a pruned run
// that differs from its unpruned twin. Inputs: the shared point, the
// score offsets in ulps of D (each byte mod 9, cut into one run per
// relation, the first runs the longer), the number of relations (2, 3 or 4: past 2 a cut's reach
// folds inner levels, and open sessions defer and expand such cuts), the
// algorithm and the access kind.
func FuzzPruneByteIdentity(f *testing.F) {
	f.Add(22360.001462, 22360.5, []byte{0, 1, 0}, uint8(0), uint8(CBRR), false)
	f.Add(22360.001462, 22360.5, []byte{0, 1, 0}, uint8(0), uint8(TBRR), false)
	f.Add(22360.001462, 22360.5, []byte{0, 1, 0, 3, 2, 1, 4, 0}, uint8(2), uint8(TBPA), true)
	f.Fuzz(func(t *testing.T, x, y float64, offs []byte, rels, algo uint8, score bool) {
		if len(offs) > 12 {
			offs = offs[:12]
		}
		n := 2 + int(rels%3)
		if len(offs) < n {
			t.Skip("every relation needs a tuple")
		}
		ks := make([]int, len(offs))
		for i, b := range offs {
			ks[i] = int(b % 9)
		}
		runs := make([][]int, n)
		for i := range runs {
			runs[i] = ks[(i*len(ks)+n-1)/n : ((i+1)*len(ks)+n-1)/n]
		}
		in, ok := cancellingInstance(vec.Vector{x, y}, runs, 1)
		if !ok {
			t.Skip("no valid relation")
		}
		kind := relation.DistanceAccess
		if score {
			kind = relation.ScoreAccess
		}
		if err := pruneInvisible(t, in, kind, Algorithm(algo%4)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCutIsExact: formation and the score walk cut on the fold of the
// very solo terms a score adds, with no slack under the floor. Scores are
// plain sums (identity transform, w_q = w_µ = 0), each just a few ulps of
// δ = 2⁻⁴⁰ apart, far inside any relative 1e-9 band.
//
// Formation, K = 2, round robin over score access: after a0·b0·c0 (3)
// and a1·b0·c0 (3 − δ) fill the buffer, the pull of b1 (1 − 2δ) forms
// R0 × {b1} × R2, whose best member reaches 3 − 2δ, below the floor
// 3 − δ: both of its subtrees are cut, and CombinationsPruned counts them.
//
// Score walk, K = 2, TBRR: the partial ⟨a1⟩ of subset {R0} has geo equal
// to its solo, 1 − δ, below bestGeo = 1 of ⟨a0⟩, so it is never solved:
// two geo evaluations, ⟨a0⟩ and ⟨b0⟩. Either way the answers equal the
// unpruned twin's and the full sort's.
func TestCutIsExact(t *testing.T) {
	const delta = 0x1p-40
	fn := agg.MustEuclideanSum(agg.Weights{Ws: 1}, agg.IdentityScore)
	rel := func(name string, scores ...float64) *relation.Relation {
		tuples := make([]relation.Tuple, len(scores))
		for j, s := range scores {
			tuples[j] = relation.Tuple{ID: fmt.Sprintf("%s-%d", name, j), Score: s, Vec: vec.Of(0)}
		}
		return relation.MustNew(name, scores[0], tuples)
	}
	q := vec.Of(0)
	formation := instance{rels: []*relation.Relation{
		rel("a", 1, 1-delta), rel("b", 1, 1-2*delta), rel("c", 1),
	}, q: q, fn: fn, k: 2}
	walk := instance{rels: []*relation.Relation{
		rel("a", 1, 1-delta), rel("b", 1, 0.5),
	}, q: q, fn: fn, k: 2}
	for _, c := range []struct {
		name   string
		in     instance
		algo   Algorithm
		pruned int64
		solves int64
	}{
		{"formation", formation, CBRR, 2, 0},
		{"walk", walk, TBRR, 2, 2},
	} {
		res := runAlgo(t, c.in, relation.ScoreAccess, Options{Algorithm: c.algo})
		st := res.Stats
		if st.CombinationsPruned != c.pruned || st.QPSolves != c.solves {
			t.Errorf("%s: %d pruned and %d geo evaluations, want %d and %d",
				c.name, st.CombinationsPruned, st.QPSolves, c.pruned, c.solves)
		}
		if err := pruneInvisible(t, c.in, relation.ScoreAccess, c.algo); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		want, err := Naive(c.in.rels, q, fn, c.in.k)
		if err != nil {
			t.Fatal(err)
		}
		if err := combosIdentical(res.Combinations, want); err != nil {
			t.Errorf("%s: against the full sort: %v", c.name, err)
		}
	}
}
