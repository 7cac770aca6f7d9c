package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// TestQuickWalkOrder: a walk over the bySolo heap yields exactly a stable
// descending sort of the prefix by solo, and a walk that stops at the
// first solo below a cutoff stops at the rank the sorted list stops at.
// Solos come from a few levels, some nudged off them, so ties are the
// rule; inserts and walks interleave, so walks see the heap mid-growth.
func TestQuickWalkOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		levels := 1 + r.Intn(6)
		var rs relState
		for step := 0; step < 300; step++ {
			s := float64(r.Intn(levels) - 2)
			if r.Intn(4) == 0 {
				s += r.Float64()
			}
			rs.solo = append(rs.solo, s)
			rs.pushSolo()
			if r.Intn(3) != 0 {
				continue
			}
			want := make([]int32, len(rs.solo))
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(rs.solo[b], rs.solo[a]) })
			cut := float64(r.Intn(levels+2)) - 2.5
			for i, rk := range want {
				if rs.solo[rk] < cut {
					want = want[:i+1]
					break
				}
			}
			var got []int32
			rs.walk()
			for rk, ok := rs.next(); ok; rk, ok = rs.next() {
				got = append(got, rk)
				if rs.solo[rk] < cut {
					break
				}
			}
			if !slices.Equal(got, want) {
				t.Logf("seed %d step %d cut %v: walk %v, sorted %v", seed, step, cut, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// listWalkBounder is the score-access tight bound walking a stably sorted
// list of each relation's ranks, as extend did before bySolo became a
// heap. It borrows its engine's tightScoreBounder for everything but
// register's walks.
type listWalkBounder struct {
	*tightScoreBounder
	sorted [][]int32
}

func (l *listWalkBounder) register(ri int) {
	b := l.tightScoreBounder
	b.caps[ri] = b.e.opts.Agg.SoloBound(b.e.rels[ri].lastScore(), 0)
	b.stale = true
	l.sorted = l.sorted[:0]
	for _, rj := range b.e.rels {
		s := make([]int32, rj.depth())
		for r := range s {
			s[r] = int32(r)
		}
		slices.SortStableFunc(s, func(x, y int32) int { return cmp.Compare(rj.solo[y], rj.solo[x]) })
		l.sorted = append(l.sorted, s)
	}
	for mask := range b.bestGeo {
		if mask&(1<<ri) != 0 {
			l.extendSubset(mask, ri)
		}
	}
}

// extendSubset and extend are tightScoreBounder's, reading l.sorted.
func (l *listWalkBounder) extendSubset(mask, ri int) {
	b := l.tightScoreBounder
	w := &b.walk
	w.mask = mask
	w.others = w.others[:0]
	for k, j := range b.members[mask] {
		if j == ri {
			w.pos = k
			continue
		}
		if b.e.rels[j].depth() == 0 {
			return
		}
		w.others = append(w.others, j)
	}
	rs := b.e.rels[ri]
	last := rs.depth() - 1
	w.xs[w.pos] = rs.tuples[last].Vec
	if len(w.others) == 0 {
		b.e.stats.PartialsTracked++
		if rs.solo[last] < b.bestGeo[mask] {
			return
		}
	}
	l.extend(0, rs.solo[last])
}

func (l *listWalkBounder) extend(oi int, acc float64) {
	b := l.tightScoreBounder
	w := &b.walk
	if oi == len(w.others) {
		if g := b.geo(w.xs[:len(w.others)+1], acc); g > b.bestGeo[w.mask] {
			b.bestGeo[w.mask] = g
		}
		return
	}
	rs := b.e.rels[w.others[oi]]
	leaf := oi == len(w.others)-1
	xi := oi
	if oi >= w.pos {
		xi = oi + 1
	}
	for _, r := range l.sorted[w.others[oi]] {
		if leaf {
			b.e.stats.PartialsTracked++
		}
		v := acc + rs.solo[r]
		reach := v
		for _, j := range w.others[oi+1:] {
			reach += b.e.rels[j].soloMax
		}
		if reach < b.bestGeo[w.mask] {
			return
		}
		w.xs[xi] = rs.tuples[r].Vec
		l.extend(oi+1, v)
	}
}

// TestExtendWalkOrder: at n = 3 and n = 4, the score-access bound's walk
// over the bySolo heaps reaches the same partials as a walk over stably
// sorted lists. Two engines run in lockstep, one with listWalkBounder;
// after every pull PartialsTracked, QPSolves and every subset's bestGeo
// must agree bit for bit.
func TestExtendWalkOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for ci, in := range scoreWalkInstances(r) {
		if len(in.rels) < 3 {
			continue
		}
		for _, algo := range []Algorithm{TBRR, TBPA} {
			name := fmt.Sprintf("case %d (n=%d, %v, %v)", ci, len(in.rels), in.fn, algo)
			open := func() *Engine {
				e, err := NewEngine(in.sources(t, relation.ScoreAccess), Options{K: in.k, Algorithm: algo, Query: in.q, Agg: in.fn})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e, oracle := open(), open()
			b := e.bound.(*tightScoreBounder)
			ref := &listWalkBounder{tightScoreBounder: oracle.bound.(*tightScoreBounder)}
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
				if e.stats.PartialsTracked != oracle.stats.PartialsTracked || e.stats.QPSolves != oracle.stats.QPSolves {
					t.Fatalf("%s pull %d: %d partials and %d solves, reference %d and %d", name, pull,
						e.stats.PartialsTracked, e.stats.QPSolves, oracle.stats.PartialsTracked, oracle.stats.QPSolves)
				}
				for mask, g := range b.bestGeo {
					if math.Float64bits(g) != math.Float64bits(ref.bestGeo[mask]) {
						t.Fatalf("%s pull %d mask %b: bestGeo %v, reference %v", name, pull, mask, g, ref.bestGeo[mask])
					}
				}
			}
		}
	}
}

// recycleInstance is deep enough that every prefix column outgrows the
// slab segment it was carved from, under both access kinds.
func recycleInstance() instance {
	return fixedInstance(rand.New(rand.NewSource(1602)), 2, 400, 3, 8)
}

func openSession(t *testing.T, in instance, kind relation.AccessKind) *Iterator {
	t.Helper()
	it, err := NewIterator(in.sources(t, kind), Options{Algorithm: TBPA, Query: in.q, Agg: in.fn})
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// take returns a session's next n results.
func take(it *Iterator, n int) ([]Combination, error) {
	out := make([]Combination, 0, n)
	for len(out) < n {
		c, err := it.Next()
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

// TestConcurrentRecycledSessions: a session closed twice hands its
// columns back once, so two sessions opened afterwards never share a
// backing array, and the two, run concurrently on recycled columns,
// answer exactly as a session on fresh ones.
func TestConcurrentRecycledSessions(t *testing.T) {
	in := recycleInstance()
	const n = 200
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		first := openSession(t, in, kind)
		want, err := take(first, n)
		if err != nil {
			t.Fatal(err)
		}
		first.Close()
		first.Close()
		a, b := openSession(t, in, kind), openSession(t, in, kind)
		if a.e.cols == b.e.cols {
			t.Fatalf("%v: two open sessions hold one column record", kind)
		}
		for i := range a.e.rels {
			x, y := a.e.rels[i], b.e.rels[i]
			if x == y || &x.tuples[:1][0] == &y.tuples[:1][0] || &x.bySolo[:1][0] == &y.bySolo[:1][0] {
				t.Fatalf("%v: two open sessions share relation %d's columns", kind, i)
			}
		}
		got := make([][]Combination, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i, it := range []*Iterator{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = take(it, n)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if err := combosIdentical(got[i], want); err != nil {
				t.Fatalf("%v: recycled session %d: %v", kind, i, err)
			}
		}
		a.Close()
		b.Close()
	}
}

// TestRecycledTupleColumnZeroed: what Close hands back holds no Tuple —
// neither the tuple columns, over their whole capacity, nor the slab
// they outgrew — and no source.
func TestRecycledTupleColumnZeroed(t *testing.T) {
	in := recycleInstance()
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		it := openSession(t, in, kind)
		if _, err := take(it, 200); err != nil {
			t.Fatal(err)
		}
		cols := it.e.cols
		grew := false
		for _, rs := range cols.rels {
			grew = grew || rs.depth() > prefixCap
		}
		if !grew {
			t.Fatalf("%v: no prefix outgrew its slab segment", kind)
		}
		it.Close()
		for i, rs := range cols.rels {
			if rs.src != nil || rs.depth() != 0 || len(rs.bySolo) != 0 {
				t.Fatalf("%v: relation %d handed back with a source or a prefix", kind, i)
			}
			for _, tup := range rs.tuples[:cap(rs.tuples)] {
				if !reflect.ValueOf(tup).IsZero() {
					t.Fatalf("%v: relation %d's tuple column still holds %s", kind, i, tup.ID)
				}
			}
		}
		for _, tup := range cols.slab {
			if !reflect.ValueOf(tup).IsZero() {
				t.Fatalf("%v: the tuple slab still holds %s", kind, tup.ID)
			}
		}
	}
}

// TestRecycleSkipsDeepColumns: a session whose prefix ran past
// maxRecycledDepth tuples is not handed to the pool, so no later session
// inherits, and no idle pool keeps, columns that deep.
func TestRecycleSkipsDeepColumns(t *testing.T) {
	in := fixedInstance(rand.New(rand.NewSource(1603)), 2, maxRecycledDepth+1, 3, 8)
	it, err := NewIterator(in.sources(t, relation.ScoreAccess), Options{Algorithm: CBRR, Query: in.q, Agg: in.fn})
	if err != nil {
		t.Fatal(err)
	}
	for it.e.Depth(0) <= maxRecycledDepth {
		if err := it.e.step(0); err != nil {
			t.Fatal(err)
		}
	}
	cols := it.e.cols
	it.Close()
	for c, _ := colPool.Get().(*prefixCols); c != nil; c, _ = colPool.Get().(*prefixCols) {
		if c == cols {
			t.Fatal("a session past maxRecycledDepth handed its columns to the pool")
		}
	}
}

// TestRecycledSessionReadsAfterClose: Stats, Emitted and Threshold read
// as they did before Close handed the columns on, even once another
// session runs on them; Next and DrainBest refuse.
func TestRecycledSessionReadsAfterClose(t *testing.T) {
	in := recycleInstance()
	it := openSession(t, in, relation.ScoreAccess)
	if _, err := take(it, 50); err != nil {
		t.Fatal(err)
	}
	st, emitted, th := it.Stats(), it.Emitted(), it.Threshold()
	depths := slices.Clone(st.Depths)
	it.Close()
	next := openSession(t, in, relation.ScoreAccess)
	if _, err := take(next, 100); err != nil {
		t.Fatal(err)
	}
	next.Close()
	after := it.Stats()
	if err := statsIdentical(after, st); err != nil || !slices.Equal(after.Depths, depths) {
		t.Fatalf("Stats after Close: %+v, before %+v (%v)", after, st, err)
	}
	if it.Emitted() != emitted || math.Float64bits(it.Threshold()) != math.Float64bits(th) {
		t.Fatalf("after Close: emitted %d threshold %v, before %d %v", it.Emitted(), it.Threshold(), emitted, th)
	}
	if _, err := it.Next(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Next after Close: %v", err)
	}
	if _, ok := it.DrainBest(); ok {
		t.Fatal("DrainBest after Close yielded a result")
	}
}
