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

func mustAgg(t *testing.T, ws, wq, wmu float64) *agg.EuclideanSum {
	t.Helper()
	fn, err := agg.NewEuclideanSum(agg.Weights{Ws: ws, Wq: wq, Wmu: wmu}, agg.IdentityScore)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// combosIdentical requires bit-exact equality: scores, rank vectors, and
// the tuples themselves. This is the "byte-identical results" contract of
// the hot-path optimizations — pruning, the combination arena, and the
// bounded session buffer must be invisible in the output.
func combosIdentical(a, b []Combination) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return fmt.Errorf("combination %d: score %v vs %v", i, a[i].Score, b[i].Score)
		}
		if len(a[i].Ranks) != len(b[i].Ranks) {
			return fmt.Errorf("combination %d: rank arity", i)
		}
		for j := range a[i].Ranks {
			if a[i].Ranks[j] != b[i].Ranks[j] {
				return fmt.Errorf("combination %d: ranks %v vs %v", i, a[i].Ranks, b[i].Ranks)
			}
			ta, tb := a[i].Tuples[j], b[i].Tuples[j]
			if ta.ID != tb.ID || ta.Score != tb.Score || !ta.Vec.Equal(tb.Vec) {
				return fmt.Errorf("combination %d tuple %d: %+v vs %+v", i, j, ta, tb)
			}
		}
	}
	return nil
}

// statsIdentical compares every schedule-derived counter; the
// optimization-reporting fields (CombinationsPruned, PeakBuffered,
// SpilledCombinations) and wall-clock times are the only ones allowed to
// differ.
func statsIdentical(a, b Stats) error {
	if a.SumDepths != b.SumDepths {
		return fmt.Errorf("sumDepths %d vs %d", a.SumDepths, b.SumDepths)
	}
	for i := range a.Depths {
		if a.Depths[i] != b.Depths[i] {
			return fmt.Errorf("depths %v vs %v", a.Depths, b.Depths)
		}
	}
	if a.CombinationsFormed != b.CombinationsFormed {
		return fmt.Errorf("combinationsFormed %d vs %d", a.CombinationsFormed, b.CombinationsFormed)
	}
	if a.BoundUpdates != b.BoundUpdates {
		return fmt.Errorf("boundUpdates %d vs %d", a.BoundUpdates, b.BoundUpdates)
	}
	if a.QPSolves != b.QPSolves {
		return fmt.Errorf("qpSolves %d vs %d", a.QPSolves, b.QPSolves)
	}
	if a.PartialsTracked != b.PartialsTracked {
		return fmt.Errorf("partialsTracked %d vs %d", a.PartialsTracked, b.PartialsTracked)
	}
	return nil
}

// identityCase is one randomized operating point of the property.
type identityCase struct {
	in   instance
	kind relation.AccessKind
	opts Options // K/Query/Agg filled by runAlgo
}

// degenerateInstances are the tie-heavy and boundary inputs every
// identity suite also runs: duplicate vectors, equal scores (hence equal
// solo terms — pruning must not depend on how ties are ordered), both at
// once, dim 1, a single-tuple relation, K larger than the cross product,
// and n = 4.
func degenerateInstances() []instance {
	fn := agg.MustEuclideanSum(agg.Weights{Ws: 1, Wq: 0.5, Wmu: 0.25}, agg.IdentityScore)
	// rel builds relation i from parallel score and coordinate lists;
	// coordinates cycle when shorter than the score list.
	rel := func(i, d int, scores []float64, coords ...float64) *relation.Relation {
		tuples := make([]relation.Tuple, len(scores))
		for j, s := range scores {
			v := vec.New(d)
			for c := range v {
				v[c] = coords[(j*d+c)%len(coords)]
			}
			tuples[j] = relation.Tuple{ID: fmt.Sprintf("%c%d", 'a'+i, j), Score: s, Vec: v}
		}
		return relation.MustNew(string(rune('A'+i)), 1.0, tuples)
	}
	ramp := []float64{0.9, 0.2, 0.7, 0.4, 0.6, 0.3, 0.8, 0.5}
	flat := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	spread := []float64{1, -2, 0.5, 3, -1, 2, -3, 0.25, 1.5, -0.5, 4, -4, 2.5, 0, -1.5, 0.75}
	return []instance{
		// Duplicate vectors: two distinct points, eight tuples.
		{rels: []*relation.Relation{rel(0, 2, ramp, 1, 1, -2, 0.5), rel(1, 2, ramp, 1, 1, 0, 3)}, q: vec.Vector{0.5, 0.5}, fn: fn, k: 5},
		// Equal scores.
		{rels: []*relation.Relation{rel(0, 2, flat, spread...), rel(1, 2, flat, spread[3:]...)}, q: vec.Vector{0, 1}, fn: fn, k: 4},
		// Both: every tuple of a relation carries the same solo term.
		{rels: []*relation.Relation{rel(0, 2, flat, 1, 1), rel(1, 2, flat, -1, 2), rel(2, 2, flat[:3], 0, 0)}, q: vec.Vector{0, 0}, fn: fn, k: 6},
		// Dim 1.
		{rels: []*relation.Relation{rel(0, 1, ramp, spread...), rel(1, 1, ramp, spread[5:]...)}, q: vec.Vector{0.3}, fn: fn, k: 3},
		// A single-tuple relation.
		{rels: []*relation.Relation{rel(0, 2, ramp, spread...), rel(1, 2, ramp[:1], 0.5, -0.5)}, q: vec.Vector{1, 0}, fn: fn, k: 4},
		// K larger than the cross product.
		{rels: []*relation.Relation{rel(0, 2, ramp[:3], spread...), rel(1, 2, ramp[:2], spread[2:]...)}, q: vec.Vector{0, 0}, fn: fn, k: 10},
		// n = 4.
		{rels: []*relation.Relation{rel(0, 2, ramp[:5], spread...), rel(1, 2, ramp[1:6], spread[1:]...),
			rel(2, 2, ramp[2:7], spread[2:]...), rel(3, 2, ramp[3:], spread[3:]...)}, q: vec.Vector{0.5, -0.5}, fn: fn, k: 5},
	}
}

func identityCases(r *rand.Rand, trials int) []identityCase {
	var out []identityCase
	add := func(in instance) {
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				opts := Options{Algorithm: algo}
				if r.Intn(3) == 0 {
					opts.Epsilon = r.Float64() * 0.2
				}
				if r.Intn(4) == 0 {
					// A tight cap forces the DNF path through the same
					// comparison.
					opts.MaxCombinations = 1 + int64(r.Intn(40))
				}
				out = append(out, identityCase{in: in, kind: kind, opts: opts})
			}
		}
	}
	for i := 0; i < trials; i++ {
		add(randomInstance(r, 3, 14))
	}
	// The degenerate instances go last so the random cases draw exactly
	// what they drew before these were added.
	for _, in := range degenerateInstances() {
		add(in)
	}
	return out
}

// TestQuickPruneByteIdentity: a batch run with score-floor pruning (the
// default) is byte-identical — combinations, ranks, threshold, DNF flag,
// and every schedule counter — to the unpruned run, across both access
// kinds, all four bound/pull instantiations, tight caps and epsilon.
func TestQuickPruneByteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(417))
	for ci, c := range identityCases(r, 20) {
		pruned := runAlgo(t, c.in, c.kind, c.opts)
		base := c.opts
		base.disablePrune = true
		plain := runAlgo(t, c.in, c.kind, base)
		if err := combosIdentical(pruned.Combinations, plain.Combinations); err != nil {
			t.Fatalf("case %d (%v, %v): %v", ci, c.opts.Algorithm, c.kind, err)
		}
		if math.Float64bits(pruned.Threshold) != math.Float64bits(plain.Threshold) {
			t.Fatalf("case %d: threshold %v vs %v", ci, pruned.Threshold, plain.Threshold)
		}
		if pruned.DNF != plain.DNF {
			t.Fatalf("case %d: DNF %v vs %v", ci, pruned.DNF, plain.DNF)
		}
		if err := statsIdentical(pruned.Stats, plain.Stats); err != nil {
			t.Fatalf("case %d (%v, %v): %v", ci, c.opts.Algorithm, c.kind, err)
		}
		if plain.Stats.CombinationsPruned != 0 {
			t.Fatalf("case %d: unpruned run reported pruning", ci)
		}
		if pruned.Stats.PeakBuffered > c.in.k {
			t.Fatalf("case %d: batch peak buffered %d exceeds K=%d", ci, pruned.Stats.PeakBuffered, c.in.k)
		}
	}
}

// drainIterator drives an iterator to completion: every certified
// emission, the terminal error, and the best-effort drain after it.
func drainIterator(t *testing.T, in instance, kind relation.AccessKind, opts Options) (emitted, drained []Combination, terminal error, stats Stats) {
	t.Helper()
	opts.Query = in.q
	opts.Agg = in.fn
	it, err := NewIterator(in.sources(t, kind), opts)
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := it.Next()
		if err != nil {
			if !errors.Is(err, ErrIteratorDone) && !errors.Is(err, ErrIteratorDNF) && !errors.Is(err, ErrIteratorPastBound) {
				t.Fatalf("iterator failed: %v", err)
			}
			terminal = err
			break
		}
		emitted = append(emitted, c)
	}
	for {
		c, ok := it.DrainBest()
		if !ok {
			break
		}
		drained = append(drained, c)
	}
	return emitted, drained, terminal, it.Stats()
}

// oracleOptions is the session every buffer suite is held to: pruning off
// and a window wider than any test's cross product, so nothing is ever cut,
// evicted or spilled — every formed combination waits in the one ranked
// heap until it is emitted.
func oracleOptions(opts Options) Options {
	opts.disablePrune = true
	opts.window = 1 << 30
	return opts
}

// statsAfter is the oracle stopped at an emission count: the stats of an
// iterator that has called Next at most n times, the last being the
// terminal call if the stream ended first.
func statsAfter(t *testing.T, in instance, kind relation.AccessKind, opts Options, n int) Stats {
	t.Helper()
	opts.Query, opts.Agg = in.q, in.fn
	it, err := NewIterator(in.sources(t, kind), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; i < n; i++ {
		if _, err := it.Next(); err != nil {
			break
		}
	}
	return it.Stats()
}

// TestQuickSessionBufferByteIdentity: the session window is invisible in
// the stream. An open session — the default window, or a small one —
// reproduces the oracle's stream in full (emissions, terminal
// condition, drain order); a bounded consumer reproduces the first
// MaxBuffered results and the drained-to-K batch contract under DNF caps,
// then refuses to go on (ErrIteratorPastBound); and every run pulls
// exactly the same input as the oracle up to where it stops (identical
// schedule counters).
func TestQuickSessionBufferByteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for ci, c := range identityCases(r, 8) {
		base := oracleOptions(c.opts)
		baseEmit, baseDrain, baseErr, baseStats := drainIterator(t, c.in, c.kind, base)

		opEmit, opDrain, opErr, opStats := drainIterator(t, c.in, c.kind, c.opts)
		if !errors.Is(opErr, baseErr) {
			t.Fatalf("case %d: open terminal %v vs %v", ci, opErr, baseErr)
		}
		if err := combosIdentical(opEmit, baseEmit); err != nil {
			t.Fatalf("case %d: open emissions: %v", ci, err)
		}
		if err := combosIdentical(opDrain, baseDrain); err != nil {
			t.Fatalf("case %d: open drain: %v", ci, err)
		}
		if err := statsIdentical(opStats, baseStats); err != nil {
			t.Fatalf("case %d: open stats: %v", ci, err)
		}

		spill := c.opts
		spill.window = 1 + r.Intn(5)
		spEmit, spDrain, spErr, spStats := drainIterator(t, c.in, c.kind, spill)
		if !errors.Is(spErr, baseErr) {
			t.Fatalf("case %d: spill terminal %v vs %v", ci, spErr, baseErr)
		}
		if err := combosIdentical(spEmit, baseEmit); err != nil {
			t.Fatalf("case %d: spill emissions: %v", ci, err)
		}
		if err := combosIdentical(spDrain, baseDrain); err != nil {
			t.Fatalf("case %d: spill drain: %v", ci, err)
		}
		if err := statsIdentical(spStats, baseStats); err != nil {
			t.Fatalf("case %d: spill stats: %v", ci, err)
		}

		k := c.in.k
		prune := c.opts
		prune.MaxBuffered = k
		prEmit, prDrain, prErr, prStats := drainIterator(t, c.in, c.kind, prune)
		wantErr := baseErr
		if len(baseEmit) >= k {
			wantErr = ErrIteratorPastBound
		}
		if !errors.Is(prErr, wantErr) {
			t.Fatalf("case %d: prune terminal %v, want %v", ci, prErr, wantErr)
		}
		if len(prEmit)+len(prDrain) > k {
			t.Fatalf("case %d: prune delivered %d + %d past its bound %d", ci, len(prEmit), len(prDrain), k)
		}
		// The batch contract: emissions plus the best-effort drain,
		// truncated to K, match the oracle result for result.
		baseK := append(append([]Combination{}, baseEmit...), baseDrain...)
		prK := append(append([]Combination{}, prEmit...), prDrain...)
		if len(baseK) > k {
			baseK = baseK[:k]
		}
		if len(prK) > k {
			prK = prK[:k]
		}
		if err := combosIdentical(prK, baseK); err != nil {
			t.Fatalf("case %d (%v, %v): prune first-K: %v", ci, c.opts.Algorithm, c.kind, err)
		}
		if err := statsIdentical(prStats, statsAfter(t, c.in, c.kind, base, k)); err != nil {
			t.Fatalf("case %d: prune stats: %v", ci, err)
		}
		if prStats.PeakBuffered > k {
			t.Fatalf("case %d: prune peak buffered %d exceeds cap %d", ci, prStats.PeakBuffered, k)
		}
		// A spill session's deferred records are not buffered entries, so its
		// peak need not reach the prune twin's; what it buffers is its heap,
		// never above the cap, plus what it spilled.
		if spStats.SpilledCombinations > 0 && int64(spStats.PeakBuffered) > int64(spill.window)+spStats.SpilledCombinations {
			t.Fatalf("case %d: implausible peak: spill %d > cap %d + spilled %d", ci, spStats.PeakBuffered, spill.window, spStats.SpilledCombinations)
		}
	}
}

// TestQuickBlockByteIdentity: the batched scoring kernel is invisible in
// the output. For every algorithm and access kind, a run whose innermost
// enumeration level is scored through ScoreBlock — at widths 1 (every
// block is a single candidate), 7 (blocks straddle candidate-list
// boundaries), and 64 (the default) — is byte-identical to the scalar
// per-candidate path: combinations, ranks, threshold, DNF flag, and
// every schedule counter including CombinationsFormed and
// CombinationsPruned (block mode makes the same prune decisions with the
// same float associativity, so even the optimization-reporting counter
// must agree).
func TestQuickBlockByteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(8191))
	for ci, c := range identityCases(r, 8) {
		scalar := c.opts
		scalar.disableBlock = true
		plain := runAlgo(t, c.in, c.kind, scalar)
		for _, bs := range []int{1, 7, 64} {
			blocked := c.opts
			blocked.blockSize = bs
			res := runAlgo(t, c.in, c.kind, blocked)
			if err := combosIdentical(res.Combinations, plain.Combinations); err != nil {
				t.Fatalf("case %d bs=%d (%v, %v): %v", ci, bs, c.opts.Algorithm, c.kind, err)
			}
			if math.Float64bits(res.Threshold) != math.Float64bits(plain.Threshold) {
				t.Fatalf("case %d bs=%d: threshold %v vs %v", ci, bs, res.Threshold, plain.Threshold)
			}
			if res.DNF != plain.DNF {
				t.Fatalf("case %d bs=%d: DNF %v vs %v", ci, bs, res.DNF, plain.DNF)
			}
			if err := statsIdentical(res.Stats, plain.Stats); err != nil {
				t.Fatalf("case %d bs=%d (%v, %v): %v", ci, bs, c.opts.Algorithm, c.kind, err)
			}
			if res.Stats.CombinationsPruned != plain.Stats.CombinationsPruned {
				t.Fatalf("case %d bs=%d: pruned %d vs %d", ci, bs,
					res.Stats.CombinationsPruned, plain.Stats.CombinationsPruned)
			}
		}
	}
}

// TestQuickBlockByteIdentityStream extends the block identity to the
// incremental surface: the iterator's emission order, terminal
// condition, and best-effort drain are unchanged by batched scoring.
func TestQuickBlockByteIdentityStream(t *testing.T) {
	r := rand.New(rand.NewSource(131071))
	for ci, c := range identityCases(r, 4) {
		scalar := c.opts
		scalar.disableBlock = true
		baseEmit, baseDrain, baseErr, baseStats := drainIterator(t, c.in, c.kind, scalar)
		for _, bs := range []int{1, 7, 64} {
			blocked := c.opts
			blocked.blockSize = bs
			emit, drain, terminal, stats := drainIterator(t, c.in, c.kind, blocked)
			if !errors.Is(terminal, baseErr) {
				t.Fatalf("case %d bs=%d: terminal %v vs %v", ci, bs, terminal, baseErr)
			}
			if err := combosIdentical(emit, baseEmit); err != nil {
				t.Fatalf("case %d bs=%d: emissions: %v", ci, bs, err)
			}
			if err := combosIdentical(drain, baseDrain); err != nil {
				t.Fatalf("case %d bs=%d: drain: %v", ci, bs, err)
			}
			if err := statsIdentical(stats, baseStats); err != nil {
				t.Fatalf("case %d bs=%d: stats: %v", ci, bs, err)
			}
		}
	}
}

// TestQuickPruneByteIdentityLargeMagnitude targets the floating-point
// corner of the prune slack: identity scores and wide coordinates make
// the per-tuple solo terms many orders of magnitude larger than the
// aggregate scores they cancel to, so the incremental partial sums carry
// absolute error far above any fixed epsilon. The slack scales with the
// term magnitude, and pruning must stay byte-invisible.
func TestQuickPruneByteIdentityLargeMagnitude(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 2 + r.Intn(2)
		d := 1 + r.Intn(2)
		rels := make([]*relation.Relation, n)
		for i := 0; i < n; i++ {
			size := 4 + r.Intn(10)
			tuples := make([]relation.Tuple, size)
			for j := range tuples {
				v := vec.New(d)
				for c := range v {
					v[c] = r.NormFloat64() * 1e3
				}
				tuples[j] = relation.Tuple{
					ID:    fmt.Sprintf("t%d-%d", i, j),
					Score: 1 + r.Float64()*1e6,
					Vec:   v,
				}
			}
			rels[i] = relation.MustNew(fmt.Sprintf("R%d", i), 1e6+1, tuples)
		}
		q := vec.New(d)
		for c := range q {
			q[c] = r.NormFloat64() * 1e3
		}
		in := instance{
			rels: rels,
			q:    q,
			fn:   mustAgg(t, 1, 1e3, 1e3),
			k:    1 + r.Intn(4),
		}
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				opts := Options{Algorithm: algo}
				pruned := runAlgo(t, in, kind, opts)
				base := opts
				base.disablePrune = true
				plain := runAlgo(t, in, kind, base)
				if err := combosIdentical(pruned.Combinations, plain.Combinations); err != nil {
					t.Fatalf("trial %d (%v, %v): %v", trial, algo, kind, err)
				}
				if err := statsIdentical(pruned.Stats, plain.Stats); err != nil {
					t.Fatalf("trial %d (%v, %v): %v", trial, algo, kind, err)
				}
			}
		}
	}
}

// TestBatchPeakBufferedIsOK asserts the acceptance property directly: a
// batch engine's retained-combination high-water mark is K, no matter how
// many combinations the run forms.
func TestBatchPeakBufferedIsOK(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	in := randomInstance(r, 2, 14) // maximal sizes: a dense cross product
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		res := runAlgo(t, in, kind, Options{Algorithm: CBRR})
		if res.Stats.CombinationsFormed <= int64(in.k) {
			t.Skipf("instance too small to be interesting: %d combinations", res.Stats.CombinationsFormed)
		}
		if res.Stats.PeakBuffered > in.k {
			t.Fatalf("%v: peak buffered %d, want <= K=%d (formed %d)",
				kind, res.Stats.PeakBuffered, in.k, res.Stats.CombinationsFormed)
		}
	}
}
