package core

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// boundedRun is a session drained to K: certified emissions, then — after a
// DNF cap — the best-effort drain, at most K in all.
type boundedRun struct {
	out               []Combination
	stats             Stats
	records           int // deferred records left at the end
	expanded, revived int
}

func drainBounded(t *testing.T, c identityCase, spillDir string) boundedRun {
	t.Helper()
	k := c.in.k
	opts := c.opts
	opts.Query, opts.Agg = c.in.q, c.in.fn
	opts.MaxBuffered, opts.SpillDir = k, spillDir
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

// TestSpillBoundedCountsLikePrune: drained to K with MaxBuffered = K, a
// session with a spill tier does the work of its twin without one, the
// bounded consumer — the same pulls and bound, the
// same cuts, the same scored count, bit-equal results — because its heap
// evolves identically and it keeps every cut as a deferred record that
// emission never reaches: no record is expanded and nothing is revived.
// Only SpilledCombinations, SpilledBytes and PeakBuffered may differ.
func TestSpillBoundedCountsLikePrune(t *testing.T) {
	r := rand.New(rand.NewSource(2929))
	deferred := 0
	for ci, c := range identityCases(r, 8) {
		prune := drainBounded(t, c, "")
		spill := drainBounded(t, c, t.TempDir())
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

// deferredMembersBelowKey drives a spill session to its cap (so no record
// has been expanded yet), then expands every record into an open buffer
// whose window never fills — no floor, no eviction — and drains it after
// each record: each member must score strictly below its record's key,
// and the members must number exactly what candidates charged to
// CombinationsPruned. It returns how many records there were.
func deferredMembersBelowKey(t *testing.T, in instance, kind relation.AccessKind, opts Options) (int, bool) {
	t.Helper()
	opts.Query, opts.Agg = in.q, in.fn
	opts.SpillDir = t.TempDir()
	it, err := NewIterator(in.sources(t, kind), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; i < opts.MaxBuffered; i++ {
		if _, err := it.Next(); err != nil {
			break
		}
	}
	session := it.e.buf
	defer func() { it.e.buf = session }() // Close discards the session's tier
	var scratch Stats
	collect := newSessionBuffer(it.e.arena, math.MaxInt, &scratch, session.cuts)
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
		opts := Options{Algorithm: Algorithms[r.Intn(len(Algorithms))], MaxBuffered: 1 + r.Intn(4)}
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
				n, ok := deferredMembersBelowKey(t, in, kind, Options{Algorithm: algo, MaxBuffered: in.k})
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
// contract: a spill session driven far past MaxBuffered with a one-entry
// watermark expands its deferred records, writes segments and reads them
// back, and still emits exactly the oracle's stream.
func TestSpillPastCapExpandsAndRevives(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	in := fixedInstance(r, 3, 7, 2, 4)
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		base := Options{Algorithm: TBPA}
		wantEmit, wantDrain, wantErr, _ := drainIterator(t, in, kind, oracleOptions(t, base))

		opts := base
		opts.MaxBuffered = 2
		opts.SpillDir, opts.SpillMemBytes = t.TempDir(), 1
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
		if expanded == 0 || st.SpilledBytes == 0 || revived == 0 {
			t.Fatalf("%v: expanded %d records, wrote %d segment bytes, revived %d times: the case checks nothing",
				kind, expanded, st.SpilledBytes, revived)
		}
		it.Close()
	}
}

// TestSpillTierIdleTouchesNothing: the file tier does no I/O until it has
// a segment to write. A spill session that never reaches its watermark,
// pointed at a directory that does not exist, leaves it absent after
// Close.
func TestSpillTierIdleTouchesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	in := randomInstance(r, 2, 14)
	dir := filepath.Join(t.TempDir(), "never")
	it, err := NewIterator(in.sources(t, relation.ScoreAccess), Options{
		Algorithm: TBPA, Query: in.q, Agg: in.fn,
		MaxBuffered: in.k, SpillDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.k; i++ {
		if _, err := it.Next(); err != nil {
			break
		}
	}
	if it.Stats().SpilledBytes != 0 {
		t.Fatal("fixture reached the default watermark")
	}
	it.Close()
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("an idle tier touched its directory: %v", err)
	}
}
