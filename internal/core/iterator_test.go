package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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
// first k results exactly as the unbounded oracle does, then fails every
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
		oracle := c.opts
		oracle.disablePrune = true
		want, _, _, _ := drainIterator(t, c.in, c.kind, oracle)
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
