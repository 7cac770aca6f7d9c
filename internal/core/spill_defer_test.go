package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// boundedRun is a session drained to K: certified emissions, then — after a
// DNF cap — the best-effort drain, at most K in all. The session is a
// bounded consumer of K results, or an open one with a K-entry window.
type boundedRun struct {
	out               []Combination
	stats             Stats
	records           int // deferred records left at the end
	expanded, revived int
}

func drainBounded(t *testing.T, c identityCase, open bool) boundedRun {
	t.Helper()
	k := c.in.k
	opts := c.opts
	opts.Query, opts.Agg = c.in.q, c.in.fn
	if open {
		opts.window = k
	} else {
		opts.MaxBuffered = k
	}
	tr := &seqTracer{}
	opts.Tracer = tr
	it, err := NewIterator(c.in.sources(t, c.kind), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var run boundedRun
	if expand := it.e.buf.expand; expand != nil {
		it.e.buf.expand = func(d deferredCut) { run.expanded++; expand(d) }
	}
	for len(run.out) < k {
		cmb, err := it.Next()
		if err == nil {
			run.out = append(run.out, cmb)
			continue
		}
		if !errors.Is(err, ErrIteratorDone) && !errors.Is(err, ErrIteratorDNF) {
			t.Fatalf("iterator failed: %v", err)
		}
		for len(run.out) < k {
			cmb, ok := it.DrainBest()
			if !ok {
				break
			}
			run.out = append(run.out, cmb)
		}
		break
	}
	for _, b := range tr.bufs {
		if b.action == TraceActionRevive {
			run.revived++
		}
	}
	if it.e.buf.cuts != nil {
		run.records = it.e.buf.cuts.heap.Len()
	}
	run.stats = it.Stats()
	return run
}

// TestSpillBoundedCountsLikePrune: drained to K, an open session with a
// K-entry window does the work of its twin, the bounded consumer of K
// results — the same pulls and bound, the same cuts, the same scored
// count, bit-equal results — because its heap evolves identically and it
// keeps every cut as a deferred record that emission never reaches: no
// record is expanded and nothing is revived. Only SpilledCombinations and
// PeakBuffered may differ.
func TestSpillBoundedCountsLikePrune(t *testing.T) {
	r := rand.New(rand.NewSource(2929))
	deferred := 0
	for ci, c := range identityCases(r, 8) {
		prune := drainBounded(t, c, false)
		spill := drainBounded(t, c, true)
		label := func() string { return c.opts.Algorithm.String() + "/" + c.kind.String() }
		if err := combosIdentical(spill.out, prune.out); err != nil {
			t.Fatalf("case %d (%s): results: %v", ci, label(), err)
		}
		if err := statsIdentical(spill.stats, prune.stats); err != nil {
			t.Fatalf("case %d (%s): %v", ci, label(), err)
		}
		if spill.stats.CombinationsPruned != prune.stats.CombinationsPruned {
			t.Fatalf("case %d (%s): pruned %d, prune twin %d", ci, label(), spill.stats.CombinationsPruned, prune.stats.CombinationsPruned)
		}
		if spill.expanded != 0 || spill.revived != 0 {
			t.Fatalf("case %d (%s): a K-bounded spill session expanded %d records and revived %d times", ci, label(), spill.expanded, spill.revived)
		}
		if spill.stats.CombinationsPruned > 0 && spill.records == 0 {
			t.Fatalf("case %d (%s): %d pruned but no deferred record kept", ci, label(), spill.stats.CombinationsPruned)
		}
		deferred += spill.records
	}
	if deferred == 0 {
		t.Fatal("no case cut a subtree: the property checks nothing")
	}
}

// deferredMembersBelowKey drives an open session to its window's size in
// results (so no record has been expanded yet), then expands every record
// into an open buffer whose window never fills — no floor, no eviction —
// and drains it after each record: each member must score strictly below
// its record's key, and the members must number exactly what candidates
// charged to CombinationsPruned. It returns how many records there were.
func deferredMembersBelowKey(t *testing.T, in instance, kind relation.AccessKind, opts Options) (int, bool) {
	t.Helper()
	opts.Query, opts.Agg = in.q, in.fn
	it, err := NewIterator(in.sources(t, kind), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; i < opts.window; i++ {
		if _, err := it.Next(); err != nil {
			break
		}
	}
	var scratch Stats
	collect := newSessionBuffer(it.e.arena, math.MaxInt, &scratch, it.e.buf.cuts)
	it.e.buf = collect
	records, members := collect.cuts.heap.Len(), int64(0)
	for collect.cuts.heap.Len() > 0 {
		c, _ := collect.cuts.heap.Pop()
		it.e.expandCut(c)
		for collect.heap.Len() > 0 {
			ref, _ := collect.heap.PopMax()
			it.e.arena.release(ref.slot)
			members++
			if !(ref.score < c.key) {
				t.Logf("member scores %v, record key %v", ref.score, c.key)
				return records, false
			}
		}
	}
	if got, want := members, it.Stats().CombinationsPruned; got != want {
		t.Logf("records hold %d members, candidates cut %d", got, want)
		return records, false
	}
	return records, true
}

// TestSpillDeferredMembersBelowKey is reach's argument as a property:
// every member of every deferred record — recomputed from the record's
// operands, not remembered — scores strictly below the floor it was cut
// against, and the records hold exactly the cut. Random instances over
// n = 2..4, then the tie-heavy degenerate ones under every algorithm and
// access kind.
func TestSpillDeferredMembersBelowKey(t *testing.T) {
	records := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 4, 9)
		kind := relation.DistanceAccess
		if r.Intn(2) == 0 {
			kind = relation.ScoreAccess
		}
		opts := Options{Algorithm: Algorithms[r.Intn(len(Algorithms))], window: 1 + r.Intn(4)}
		n, ok := deferredMembersBelowKey(t, in, kind, opts)
		records += n
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	for ii, in := range degenerateInstances() {
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				n, ok := deferredMembersBelowKey(t, in, kind, Options{Algorithm: algo, window: in.k})
				if !ok {
					t.Fatalf("degenerate instance %d (%v, %v)", ii, algo, kind)
				}
				records += n
			}
		}
	}
	if records == 0 {
		t.Fatal("no session kept a deferred record: the property checks nothing")
	}
}

// TestSpillPastCapExpandsAndRevives is the open-enumeration half of the
// contract: an open session with a two-entry window, driven far past it,
// expands its deferred records, spills and revives, and still emits
// exactly the oracle's stream.
func TestSpillPastCapExpandsAndRevives(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	in := fixedInstance(r, 3, 7, 2, 4)
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		base := Options{Algorithm: TBPA}
		wantEmit, wantDrain, wantErr, _ := drainIterator(t, in, kind, oracleOptions(base))

		opts := base
		opts.window = 2
		opts.Query, opts.Agg = in.q, in.fn
		tr := &seqTracer{}
		opts.Tracer = tr
		it, err := NewIterator(in.sources(t, kind), opts)
		if err != nil {
			t.Fatal(err)
		}
		expanded := 0
		expand := it.e.buf.expand
		it.e.buf.expand = func(d deferredCut) { expanded++; expand(d) }
		var emit []Combination
		for {
			c, err := it.Next()
			if err != nil {
				if !errors.Is(err, wantErr) {
					t.Fatalf("%v: terminal %v, want %v", kind, err, wantErr)
				}
				break
			}
			emit = append(emit, c)
		}
		if err := combosIdentical(emit, wantEmit); err != nil || len(wantDrain) != 0 {
			t.Fatalf("%v: stream vs oracle: %v (oracle drain %d)", kind, err, len(wantDrain))
		}
		revived := 0
		for _, b := range tr.bufs {
			if b.action == TraceActionRevive {
				revived++
			}
		}
		st := it.Stats()
		if expanded == 0 || st.SpilledCombinations == 0 || revived == 0 {
			t.Fatalf("%v: expanded %d records, spilled %d, revived %d times: the case checks nothing",
				kind, expanded, st.SpilledCombinations, revived)
		}
		it.Close()
	}
}
