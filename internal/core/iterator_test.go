package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/relation"
)

// TestIteratorStreamsFullOrder: draining the iterator yields the whole
// cross product in exactly the oracle's score order.
func TestIteratorStreamsFullOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	in := randomInstance(r, 3, 5)
	want, err := NaiveStream(in.rels, in.q, in.fn)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(in.sources(t, relation.DistanceAccess), Options{
		K: 1, Algorithm: TBPA, Query: in.q, Agg: in.fn,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, err := it.Next()
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if math.Abs(got.Score-w.Score) > 1e-9 {
			t.Fatalf("result %d: score %v, want %v", i, got.Score, w.Score)
		}
	}
	if _, err := it.Next(); !errors.Is(err, ErrIteratorDone) {
		t.Fatalf("after exhaustion err = %v", err)
	}
	if it.Emitted() != int64(len(want)) {
		t.Fatalf("Emitted = %d, want %d", it.Emitted(), len(want))
	}
	// Errors are sticky.
	if _, err := it.Next(); !errors.Is(err, ErrIteratorDone) {
		t.Fatalf("second exhausted call err = %v", err)
	}
}

// TestQuickIteratorPrefixMatchesOracle: for random instances and both
// access kinds, the first k emitted results match the oracle, and the
// I/O paid grows with the consumed prefix.
func TestQuickIteratorPrefixMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 5)
		want, err := NaiveStream(in.rels, in.q, in.fn)
		if err != nil {
			return false
		}
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range []Algorithm{TBPA, CBRR} {
				it, err := NewIterator(in.sources(t, kind), Options{
					K: 1, Algorithm: algo, Query: in.q, Agg: in.fn,
				})
				if err != nil {
					return false
				}
				k := 1 + r.Intn(len(want))
				prevDepths := 0
				for i := 0; i < k; i++ {
					got, err := it.Next()
					if err != nil {
						return false
					}
					if math.Abs(got.Score-want[i].Score) > 1e-9 {
						return false
					}
					if it.Stats().SumDepths < prevDepths {
						return false // I/O cannot shrink
					}
					prevDepths = it.Stats().SumDepths
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickOpenSessionMatchesFullSort: an open session drained to the end
// is the fully sorted cross product, past K and through both buffer tiers.
// For every access kind, algorithm and bound schedule, under the default
// window and under a three-entry window whose evictions go to segment
// files and come back, the stream has the oracle's length and, position by
// position, its score bits; within each run of equal scores it holds the
// same combinations (access ranks and storage ranks order ties
// differently, so only the multiset of tuple-ID vectors is compared).
func TestQuickOpenSessionMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	var insts []instance
	for i := 0; i < 40; i++ {
		insts = append(insts, randomInstance(r, 3, 6))
	}
	insts = append(insts, degenerateInstances()...)
	cos, err := agg.NewCosineProximity(agg.Weights{Ws: 1, Wq: 1, Wmu: 0.5}, agg.IdentityScore)
	if err != nil {
		t.Fatal(err)
	}
	cosIn := randomInstance(r, 3, 6)
	cosIn.fn = cos
	insts = append(insts, cosIn)

	ids := func(c Combination) string {
		parts := make([]string, len(c.Tuples))
		for i, tp := range c.Tuples {
			parts[i] = tp.ID
		}
		return strings.Join(parts, "\x00")
	}
	dir := t.TempDir()
	var spilled int64
	for ii, in := range insts {
		want, err := NaiveStream(in.rels, in.q, in.fn)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				for _, eager := range []bool{false, true} {
					for _, window := range []Options{{}, {MaxBuffered: 3, SpillDir: dir, SpillMemBytes: 256}} {
						opts := window
						opts.K, opts.Algorithm, opts.EagerBounds = in.k, algo, eager
						opts.Query, opts.Agg = in.q, in.fn
						it, err := NewIterator(in.sources(t, kind), opts)
						if err != nil {
							t.Fatal(err)
						}
						var got []Combination
						for {
							c, err := it.Next()
							if err != nil {
								if !errors.Is(err, ErrIteratorDone) {
									t.Fatalf("instance %d %v %v eager=%v window=%d: %v", ii, kind, algo, eager, window.MaxBuffered, err)
								}
								break
							}
							got = append(got, c)
						}
						spilled += it.Stats().SpilledBytes
						it.Close()
						where := fmt.Sprintf("instance %d %v %v eager=%v window=%d", ii, kind, algo, eager, window.MaxBuffered)
						if len(got) != len(want) {
							t.Fatalf("%s: %d results, full sort has %d", where, len(got), len(want))
						}
						for lo := 0; lo < len(want); {
							bits := math.Float64bits(want[lo].Score)
							hi := lo
							var g, w []string
							for ; hi < len(want) && math.Float64bits(want[hi].Score) == bits; hi++ {
								if gb := math.Float64bits(got[hi].Score); gb != bits {
									t.Fatalf("%s: result %d scores %v, full sort %v", where, hi, got[hi].Score, want[hi].Score)
								}
								g, w = append(g, ids(got[hi])), append(w, ids(want[hi]))
							}
							slices.Sort(g)
							slices.Sort(w)
							if !slices.Equal(g, w) {
								t.Fatalf("%s: results %d..%d tie at %v with %q, full sort has %q", where, lo, hi-1, want[lo].Score, g, w)
							}
							lo = hi
						}
					}
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no case wrote a spill segment")
	}
}

// TestIteratorLazyIO: consuming only the top result must cost no more I/O
// than a K=1 engine run (the pipelined operator pulls on demand).
func TestIteratorLazyIO(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	in := randomInstance(r, 2, 8)
	engineRes := runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: TBPA, K: 1})

	it, err := NewIterator(in.sources(t, relation.DistanceAccess), Options{
		K: 1, Algorithm: TBPA, Query: in.q, Agg: in.fn,
	})
	if err != nil {
		t.Fatal(err)
	}
	top, err := it.Next()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(top.Score-engineRes.Combinations[0].Score) > 1e-9 {
		t.Fatalf("iterator top %v, engine top %v", top.Score, engineRes.Combinations[0].Score)
	}
	if it.Stats().SumDepths > engineRes.Stats.SumDepths {
		t.Fatalf("iterator paid %d accesses for top-1, engine paid %d",
			it.Stats().SumDepths, engineRes.Stats.SumDepths)
	}
}

// TestIteratorFaultSticky: an access error surfaces and subsequent calls
// keep returning it.
func TestIteratorFaultSticky(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := randomInstance(r, 2, 6)
	boom := errors.New("link down")
	srcs := in.sources(t, relation.DistanceAccess)
	srcs[0] = &relation.FaultySource{Inner: srcs[0], FailAfter: 1, Err: boom}
	it, err := NewIterator(srcs, Options{K: 1, Algorithm: TBRR, Query: in.q, Agg: in.fn})
	if err != nil {
		t.Fatal(err)
	}
	consumed := 0
	for {
		_, err := it.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			break
		}
		consumed++
		if consumed > 1000 {
			t.Fatal("fault never surfaced")
		}
	}
	if _, err := it.Next(); !errors.Is(err, boom) {
		t.Fatalf("error not sticky: %v", err)
	}
}

// TestIteratorThresholdMonotone: the reported threshold never increases
// as the iterator consumes input.
func TestIteratorThresholdMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	in := randomInstance(r, 2, 7)
	it, err := NewIterator(in.sources(t, relation.DistanceAccess), Options{
		K: 1, Algorithm: TBRR, Query: in.q, Agg: in.fn,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for {
		_, err := it.Next()
		if err != nil {
			break
		}
		if cur := it.Threshold(); cur > prev+1e-9 {
			t.Fatalf("threshold rose from %v to %v", prev, cur)
		} else {
			prev = cur
		}
	}
}

// TestBoundedConsumerRefusesPastBound: a session with MaxBuffered = k and
// no SpillDir, on every identity case whose stream runs past k, gives its
// first k results exactly as the oracle does, then fails every
// further Next with ErrIteratorPastBound and drains nothing. Lifting the
// bound on the same session shows what the error replaces: the buffer
// dropped what ranks below the k-th result, and on some cases the next
// combination it would hand out is not the oracle's. (Streams that end
// before k are TestQuickSessionBufferByteIdentity's bounded leg.)
func TestBoundedConsumerRefusesPastBound(t *testing.T) {
	r := rand.New(rand.NewSource(3131))
	checked, wrong := 0, 0
	for ci, c := range identityCases(r, 8) {
		k := c.in.k
		want, _, _, _ := drainIterator(t, c.in, c.kind, oracleOptions(t, c.opts))
		if len(want) <= k {
			continue
		}
		checked++
		opts := c.opts
		opts.MaxBuffered = k
		opts.Query, opts.Agg = c.in.q, c.in.fn
		it, err := NewIterator(c.in.sources(t, c.kind), opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []Combination
		for len(got) <= k {
			cmb, err := it.Next()
			if err != nil {
				if !errors.Is(err, ErrIteratorPastBound) || len(got) != k {
					t.Fatalf("case %d: call %d: %v, want ErrIteratorPastBound at call %d", ci, len(got)+1, err, k+1)
				}
				break
			}
			got = append(got, cmb)
		}
		if err := combosIdentical(got, want[:k]); err != nil {
			t.Fatalf("case %d: first %d: %v", ci, k, err)
		}
		if _, err := it.Next(); !errors.Is(err, ErrIteratorPastBound) {
			t.Fatalf("case %d: call %d: %v, want ErrIteratorPastBound again", ci, k+2, err)
		}
		if _, ok := it.DrainBest(); ok {
			t.Fatalf("case %d: DrainBest went past the bound", ci)
		}
		// The session as it answered before the bound was enforced.
		it.emitted = 0
		if next, err := it.Next(); err != nil || combosIdentical([]Combination{next}, want[k:k+1]) != nil {
			wrong++
		}
		it.Close()
	}
	if wrong == 0 {
		t.Fatalf("none of %d cases answers wrong past the bound: the sentinel replaces nothing", checked)
	}
	t.Logf("%d of %d cases would have answered call k+1 wrong", wrong, checked)
}

// TestOpenSessionGetsTheWindow: a session that leaves MaxBuffered at 0 is
// open and windowed. Over a cross product many windows wide, for every
// algorithm and access kind, its ranked heap never holds more than
// openWindow entries, its floor cuts subtrees into deferred records, it
// spills and revives — and its whole stream is still the oracle's, result
// for result and pull for pull. Given a SpillDir and a small watermark,
// the same default window also writes segments and reads them back.
func TestOpenSessionGetsTheWindow(t *testing.T) {
	in := fixedInstance(rand.New(rand.NewSource(32)), 2, 110, 2, 10)
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		for _, algo := range Algorithms {
			want, _, wantErr, wantStats := drainIterator(t, in, kind, oracleOptions(t, Options{Algorithm: algo}))
			for _, spillDir := range []string{"", t.TempDir()} {
				label := fmt.Sprintf("%v/%v/tier=%v", algo, kind, spillDir != "")
				tr := &seqTracer{}
				it, err := NewIterator(in.sources(t, kind), Options{
					Algorithm: algo, Query: in.q, Agg: in.fn, Tracer: tr,
					SpillDir: spillDir, SpillMemBytes: 64 * spillEntrySize(2),
				})
				if err != nil {
					t.Fatal(err)
				}
				var got []Combination
				for {
					c, err := it.Next()
					if err != nil {
						if !errors.Is(err, wantErr) {
							t.Fatalf("%s: terminal %v, want %v", label, err, wantErr)
						}
						break
					}
					got = append(got, c)
					if l := it.e.buf.heap.Len(); l > openWindow {
						t.Fatalf("%s: window holds %d entries", label, l)
					}
				}
				it.Close()
				if err := combosIdentical(got, want); err != nil {
					t.Fatalf("%s: stream vs oracle: %v", label, err)
				}
				st := it.Stats()
				if err := statsIdentical(st, wantStats); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				revived := 0
				for _, b := range tr.bufs {
					if b.action == TraceActionRevive {
						revived++
					}
				}
				if st.CombinationsPruned == 0 || st.SpilledCombinations == 0 || revived == 0 {
					t.Fatalf("%s: pruned %d, spilled %d, revived %d times: the window never engaged",
						label, st.CombinationsPruned, st.SpilledCombinations, revived)
				}
				if (spillDir != "") != (st.SpilledBytes > 0) {
					t.Fatalf("%s: %d segment bytes written", label, st.SpilledBytes)
				}
			}
		}
	}
}

// TestReviveDoesNotAllocate: a revival moves slots from the spill heap
// back into the window — it sorts and copies nothing it leaves behind, so
// refilling a window allocates nothing however much is spilled — and the
// stream of revived entries is the global order of everything offered.
func TestReviveDoesNotAllocate(t *testing.T) {
	const window, offers = 8, 4096
	var stats Stats
	arena := newCombArena(2)
	b := newSessionBuffer(arena, window, &stats, newCutHeap(2))
	r := rand.New(rand.NewSource(32))
	for i := 0; i < offers; i++ {
		b.offer(float64(r.Intn(offers/4)), []int32{int32(r.Intn(offers)), int32(i)})
	}
	if b.spilled != offers-window {
		t.Fatalf("%d spilled, want %d", b.spilled, offers-window)
	}
	type entry struct {
		score float64
		ranks [2]int32
	}
	out := make([]entry, 0, offers)
	// One call empties the window and revives it once.
	drainWindow := func() {
		for i := 0; i < window; i++ {
			ref, ok := b.popBest()
			if !ok {
				return
			}
			out = append(out, entry{ref.score, [2]int32(arena.ranksAt(ref.slot))})
			arena.release(ref.slot)
		}
	}
	if allocs := testing.AllocsPerRun(100, drainWindow); allocs != 0 {
		t.Fatalf("a revival allocates %v times", allocs)
	}
	for b.buffered() > 0 {
		drainWindow()
	}
	if len(out) != offers {
		t.Fatalf("%d of %d offers came back", len(out), offers)
	}
	for i := 1; i < len(out); i++ {
		if !before(out[i-1].score, out[i-1].ranks[:], out[i].score, out[i].ranks[:]) {
			t.Fatalf("pop %d: %+v after %+v", i, out[i], out[i-1])
		}
	}
}

// TestQuickBoundedBufferMatchesSort: the batch run's output buffer is a
// bounded sessionBuffer of size k, and it is the full sort cut at k. Fed a
// stream of (score, ranks) offers heavy on ties, it reports no floor until
// it holds k, then the k-th best offered so far; it never holds more than
// k; and it pops exactly the k best under before, best first.
func TestQuickBoundedBufferMatchesSort(t *testing.T) {
	type entry struct {
		score float64
		ranks []int32
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, offers := 2+r.Intn(2), 1+r.Intn(8), r.Intn(40)
		var stats Stats
		arena := newCombArena(n)
		b := newSessionBuffer(arena, k, &stats, nil)
		var seen []entry
		keys := map[string]bool{}
		for len(seen) < offers {
			e := entry{score: float64(r.Intn(4)) / 2, ranks: make([]int32, n)}
			for i := range e.ranks {
				e.ranks[i] = int32(r.Intn(4))
			}
			key := fmt.Sprint(e)
			if keys[key] {
				continue // the engine never offers one (score, ranks) key twice
			}
			keys[key] = true
			b.offer(e.score, e.ranks)
			seen = append(seen, e)
			sort.Slice(seen, func(i, j int) bool {
				return before(seen[i].score, seen[i].ranks, seen[j].score, seen[j].ranks)
			})
			floor, full := b.floor()
			if full != (len(seen) >= k) || full && floor != seen[k-1].score {
				t.Logf("seed %d: after %d offers floor (%v, %v), k-th best %v", seed, len(seen), floor, full, seen[min(k, len(seen))-1])
				return false
			}
		}
		want := seen[:min(k, len(seen))]
		if b.buffered() != len(want) || stats.PeakBuffered > k {
			t.Logf("seed %d: holds %d (peak %d), want %d", seed, b.buffered(), stats.PeakBuffered, len(want))
			return false
		}
		for i, w := range want {
			ref, ok := b.popBest()
			if !ok || ref.score != w.score || !slices.Equal(arena.ranksAt(ref.slot), w.ranks) {
				t.Logf("seed %d: pop %d = %v %v, want %v", seed, i, ref.score, arena.ranksAt(ref.slot), w)
				return false
			}
			arena.release(ref.slot)
		}
		_, ok := b.popBest()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
