package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vec"
)

// columnsTwin reassembles a partitioned relation from its own shard
// columns under a stub parent — the AssembleSharded product a relfile
// loads into, minus the file: no tuples on the parent, R-trees built
// lazily.
func columnsTwin(t testing.TB, ram *Sharded) *Sharded {
	t.Helper()
	parent := ram.Relation()
	stub, err := NewStub(parent.Name, parent.MaxScore, parent.Dim(), parent.Len())
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]Columns, ram.NumShards())
	for i := range shards {
		shards[i] = ram.ShardColumns(i)
	}
	twin, err := AssembleSharded(stub, shards)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// dim8Relation mixes Gaussian vectors with a coarse grid and exact
// duplicates, so a dim-8 stream has both long untied stretches and
// exact-distance tie runs. From dimension 8 a shard scans; dim4Relation
// is the same mix at dimension 4, where a shard streams its R-tree.
func dim8Relation(t testing.TB, seed int64, size int) *Relation {
	return mixedRelation(t, 8, seed, size)
}

func dim4Relation(t testing.TB, seed int64, size int) *Relation {
	return mixedRelation(t, 4, seed, size)
}

func mixedRelation(t testing.TB, dim int, seed int64, size int) *Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		switch {
		case i > 0 && i%9 == 0:
			v = tuples[r.Intn(i)].Vec
		case i%3 == 0:
			for c := range v {
				v[c] = float64(r.Intn(3))
			}
		default:
			for c := range v {
				v[c] = r.NormFloat64()
			}
		}
		tuples[i] = Tuple{ID: fmt.Sprintf("t%04d", i), Score: 0.1 + 0.1*float64(r.Intn(9)), Vec: v}
	}
	rel, err := New(fmt.Sprintf("dim%d", dim), 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// pullKeyed reads one element with its merge key and ordinal where the
// source reports them (a MergedSource does not: zeroes).
func pullKeyed(s Source) (Tuple, float64, int, error) {
	if k, ok := s.(KeyedSource); ok {
		return k.NextKeyed()
	}
	t, err := s.Next()
	return t, 0, 0, err
}

// sameKeyedStream drains two streams side by side and reports the first
// element that differs in tuple, key bits or ordinal. Both must be keyed,
// or neither.
func sameKeyedStream(got, want Source) error {
	for rank := 0; ; rank++ {
		gt, gk, go_, gerr := pullKeyed(got)
		wt, wk, wo, werr := pullKeyed(want)
		if errors.Is(gerr, ErrExhausted) || errors.Is(werr, ErrExhausted) {
			if !errors.Is(gerr, ErrExhausted) || !errors.Is(werr, ErrExhausted) {
				return fmt.Errorf("rank %d: one stream ended (%v / %v)", rank, gerr, werr)
			}
			return nil
		}
		if gerr != nil || werr != nil {
			return fmt.Errorf("rank %d: %v / %v", rank, gerr, werr)
		}
		if gt.ID != wt.ID || math.Float64bits(gt.Score) != math.Float64bits(wt.Score) || !gt.Vec.Equal(wt.Vec) ||
			math.Float64bits(gk) != math.Float64bits(wk) || go_ != wo {
			return fmt.Errorf("rank %d: got %s key %x ord %d, want %s key %x ord %d",
				rank, gt.ID, math.Float64bits(gk), go_, wt.ID, math.Float64bits(wk), wo)
		}
	}
}

// TestConcurrentRTreeStreamsMatchSorted: at dims 4 (R-tree) and 8
// (scan), every shard's distance stream — over a Partition product and
// over its AssembleSharded twin — equals the oracle's full sort element
// for element, key bits and ordinals included, and so do the merged
// streams. Eight goroutines read the same shared columns and (at dim 4,
// on the twin's side lazily built) indexes at once, so under -race this
// is also the shared-read-only check of both paths.
func TestConcurrentRTreeStreamsMatchSorted(t *testing.T) {
	for _, dim := range []int{4, 8} {
		rel := mixedRelation(t, dim, 5, 3000)
		ram, err := Partition(rel, 3)
		if err != nil {
			t.Fatal(err)
		}
		cols := columnsTwin(t, ram)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				q := vec.New(dim)
				for c := range q {
					q[c] = r.NormFloat64()
				}
				if g%2 == 0 {
					q = rel.At(r.Intn(rel.Len())).Vec // coincident with a tuple
				}
				for i := 0; i < ram.NumShards(); i++ {
					for name, s := range map[string]*Sharded{"Partition": ram, "twin": cols} {
						src, err := s.ShardSource(i, DistanceAccess, q, nil, true)
						if err != nil {
							t.Error(err)
							return
						}
						if err := sameKeyedStream(src, sortedShard(ram, i, q)); err != nil {
							t.Errorf("dim %d query %d shard %d, %s stream vs sort: %v", dim, g, i, name, err)
						}
					}
				}
				merged, err := OpenSource(cols, DistanceAccess, q)
				if err != nil {
					t.Error(err)
					return
				}
				sorted, err := mergedSorted(ram, q)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sameKeyedStream(merged, sorted); err != nil {
					t.Errorf("dim %d query %d, merged twin streams vs merged sorts: %v", dim, g, err)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestReleasedRTreeStreamsRecycle: what a shard server does to its
// connections' streams. Four goroutines open a dim-4 shard's R-tree
// stream, read a prefix (stopping inside a tie run as often as not),
// release it and open the next, so every traversal after the first few
// runs on a queue some other query left behind — and each prefix still
// equals the full sort's, key bits and ordinals included. A released
// stream is over. Under -race this is the check that a recycled queue has
// one owner.
func TestReleasedRTreeStreamsRecycle(t *testing.T) {
	releasedStreamsRecycle[*rtreeSource](t, dim4Relation(t, 6, 2000))
}

// TestReleasedScanStreamsRecycle is TestReleasedRTreeStreamsRecycle at
// dim 8, where every stream is a scan on key buffers some other stream
// closed.
func TestReleasedScanStreamsRecycle(t *testing.T) {
	releasedStreamsRecycle[*scanSource](t, dim8Relation(t, 6, 2000))
}

func releasedStreamsRecycle[S interface {
	KeyedSource
	Closer
}](t *testing.T, rel *Relation) {
	s, err := Partition(rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 60; round++ {
				q := rel.At(r.Intn(rel.Len())).Vec
				shard, depth := r.Intn(s.NumShards()), 1+r.Intn(200)
				src, err := s.ShardSource(shard, DistanceAccess, q, nil, true)
				if err != nil {
					t.Error(err)
					return
				}
				got := src.(S)
				want := sortedShard(s, shard, q)
				for i := 0; i < depth; i++ {
					gt, gk, go_, gerr := got.NextKeyed()
					wt, wk, wo, werr := want.NextKeyed()
					if gerr != nil || werr != nil {
						if !errors.Is(gerr, ErrExhausted) || !errors.Is(werr, ErrExhausted) {
							t.Errorf("goroutine %d round %d rank %d: errors %v vs %v", g, round, i, gerr, werr)
						}
						break
					}
					if gt.ID != wt.ID || math.Float64bits(gk) != math.Float64bits(wk) || go_ != wo {
						t.Errorf("goroutine %d round %d rank %d: (%s, %v, %d) on recycled buffers, (%s, %v, %d) sorted",
							g, round, i, gt.ID, gk, go_, wt.ID, wk, wo)
						return
					}
				}
				got.Close()
				if _, err := got.Next(); !errors.Is(err, ErrExhausted) {
					t.Errorf("goroutine %d round %d: read after Close: %v", g, round, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRTreeSourceDrainDoesNotAllocate pins the per-pull cost of a warmed
// dim-4 R-tree stream at zero allocations, over a Partition product and
// its AssembleSharded twin. The source is warmed past the traversal's
// peak so the iterator's heap has stopped growing; what is left is the
// tie-run buffer, which must be reused rather than re-sliced away.
func TestRTreeSourceDrainDoesNotAllocate(t *testing.T) {
	rel := dim4Relation(t, 9, 1000)
	ram, err := Partition(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Sharded{"partition": ram, "twin": columnsTwin(t, ram)} {
		src, err := s.ShardSource(0, DistanceAccess, vec.New(4), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := src.(*rtreeSource); !ok {
			t.Fatalf("%s: a dim-4 shard streams %T, want its R-tree", name, src)
		}
		drain := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := src.Next(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		drain(600)
		// AllocsPerRun calls the function once to warm up and once to
		// measure: two drains of 200, ending exactly at the last tuple.
		if allocs := testing.AllocsPerRun(1, func() { drain(200) }); allocs != 0 {
			t.Errorf("%s: a 200-tuple drain of a warmed source allocates %v times", name, allocs)
		}
	}
}

// TestScanSourceDrainDoesNotAllocate: once the pool holds key buffers as
// large as the shard's, a dim-8 scan stream allocates only itself at open
// and nothing to key, sort and emit every tuple, over a Partition product
// and its AssembleSharded twin. The race detector's pool drops buffers at
// random, so the count is checked without it.
func TestScanSourceDrainDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rel := dim8Relation(t, 9, 1000)
	ram, err := Partition(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rel.At(17).Vec
	for name, s := range map[string]*Sharded{"partition": ram, "twin": columnsTwin(t, ram)} {
		open := func() *scanSource {
			src, err := s.ShardSource(0, DistanceAccess, q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			return src.(*scanSource)
		}
		drain := func() {
			src := open()
			for n := 0; ; n++ {
				if _, err := src.Next(); errors.Is(err, ErrExhausted) {
					if n != rel.Len() {
						t.Fatalf("%s: %d tuples drained, want %d", name, n, rel.Len())
					}
					break
				} else if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			src.Close()
		}
		drain()
		if allocs := testing.AllocsPerRun(10, drain); allocs != 1 {
			t.Errorf("%s: open, drain and close of a warmed scan allocate %v times, want 1 (the stream)", name, allocs)
		}
	}
}

// TestScoreSourceDrainDoesNotAllocate: a score stream over a heap shard is
// a cursor over its columns — nothing is allocated per pull once it is
// open.
func TestScoreSourceDrainDoesNotAllocate(t *testing.T) {
	s, err := Partition(dim8Relation(t, 9, 1000), 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.ShardSource(0, ScoreAccess, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	pulls := s.ShardColumns(0).Len() / 2
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < pulls; i++ {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("a %d-tuple drain of an open score stream allocates %v times", pulls, allocs)
	}
}
