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
// score offsets in ulps of D (each byte mod 9; the first half go to R0,
// the rest to R1), the algorithm and the access kind.
func FuzzPruneByteIdentity(f *testing.F) {
	f.Add(22360.001462, 22360.5, []byte{0, 1, 0}, uint8(CBRR), false)
	f.Add(22360.001462, 22360.5, []byte{0, 1, 0}, uint8(TBRR), false)
	f.Fuzz(func(t *testing.T, x, y float64, offs []byte, algo uint8, score bool) {
		if len(offs) > 12 {
			offs = offs[:12]
		}
		if len(offs) < 2 {
			t.Skip("two relations need two tuples")
		}
		ks := make([]int, len(offs))
		for i, b := range offs {
			ks[i] = int(b % 9)
		}
		half := (len(ks) + 1) / 2
		in, ok := cancellingInstance(vec.Vector{x, y}, [][]int{ks[:half], ks[half:]}, 1)
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
