package relation_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/relfile"
	"repro/internal/vec"
)

// TestOpenShardSetIsMergeOfItsShards: over every non-empty subset of a
// 5-shard grid partition and of 5 overlapping shards, and over each one's
// relfile mapped back, OpenShardSet emits what NewMergedSource does over
// the same shards' ShardSource streams — tuple, key bits and ordinal,
// element for element — under both access kinds. OpenSource over a 1-,
// 3- and 12-shard grid partition and its relfile twin, the shard set of
// every shard, emits what Merge does over the ShardSource streams. After
// every element, no set has read a shard whose bound lies above the key
// it just emitted.
func TestOpenShardSetIsMergeOfItsShards(t *testing.T) {
	rel := relation.TieRelation(t, 41, 150, 2)
	queries := []vec.Vector{vec.Of(1.3, 2.1), vec.Of(2, 2), vec.Of(-40, 40)}
	for _, l := range relation.BothLayouts(t, rel, 5) {
		heap := l.Sharded
		for tier, s := range map[string]*relation.Sharded{"heap": heap, "relfile": relfileTwin(t, heap)} {
			if s.NumShards() != 5 {
				t.Fatalf("%s/%s: %d shards, want 5", l.Name, tier, s.NumShards())
			}
			for set := 1; set < 1<<5; set++ {
				var shards []int
				for i := 0; i < 5; i++ {
					if set&(1<<i) != 0 {
						shards = append(shards, i)
					}
				}
				checkSet := func(kind relation.AccessKind, q vec.Vector) {
					t.Helper()
					name := fmt.Sprintf("%s/%s/%v/%v/%v", l.Name, tier, shards, kind, q)
					inputs, bounds := shardStreams(t, s, shards, kind, q)
					want, err := relation.NewMergedSource(s.Relation(), kind, inputs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.OpenShardSet(shards, kind, q)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameMerge(t, name, got, want, bounds)
				}
				checkSet(relation.ScoreAccess, nil)
				for _, q := range queries {
					checkSet(relation.DistanceAccess, q)
				}
			}
		}
	}
	for _, n := range []int{1, 3, 12} {
		heap, err := relation.Partition(rel, n)
		if err != nil {
			t.Fatal(err)
		}
		for tier, s := range map[string]*relation.Sharded{"heap": heap, "relfile": relfileTwin(t, heap)} {
			if s.NumShards() != n {
				t.Fatalf("grid %d/%s: %d shards", n, tier, s.NumShards())
			}
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			check := func(kind relation.AccessKind, q vec.Vector) {
				t.Helper()
				name := fmt.Sprintf("OpenSource/grid %d/%s/%v/%v", n, tier, kind, q)
				inputs, bounds := shardStreams(t, s, all, kind, q)
				sources := make([]relation.Source, n)
				for i, in := range inputs {
					sources[i] = in
				}
				want, err := s.Merge(sources)
				if err != nil {
					t.Fatal(err)
				}
				got, err := relation.OpenSource(s, kind, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameMerge(t, name, got.(relation.KeyedSource), want.(relation.KeyedSource), bounds)
			}
			check(relation.ScoreAccess, nil)
			for _, q := range queries {
				check(relation.DistanceAccess, q)
			}
		}
	}
}

// relfileTwin writes s to a relfile and maps it back.
func relfileTwin(t *testing.T, s *relation.Sharded) *relation.Sharded {
	t.Helper()
	path := filepath.Join(t.TempDir(), "set.prox")
	if err := relfile.Write(path, s); err != nil {
		t.Fatal(err)
	}
	f, err := relfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	mapped, err := f.Load(s.Relation().Name)
	if err != nil {
		t.Fatal(err)
	}
	return mapped
}

// shardStreams opens the ShardSource stream of each of shards, R-tree
// backed, beside the key bound the shard advertises for it.
func shardStreams(t *testing.T, s *relation.Sharded, shards []int, kind relation.AccessKind, q vec.Vector) ([]relation.KeyedSource, []float64) {
	t.Helper()
	bounds := make([]float64, len(shards))
	inputs := make([]relation.KeyedSource, len(shards))
	for j, i := range shards {
		b := s.ShardBounds(i)
		bounds[j] = -b.MaxScore
		if kind == relation.DistanceAccess {
			bounds[j] = b.Dist2LowerBound(q)
		}
		src, err := s.ShardSource(i, kind, q, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		inputs[j] = src.(relation.KeyedSource)
	}
	return inputs, bounds
}

// sameMerge drains got and want side by side and fails at the first
// element whose tuple, key bits or ordinal differ. got over more than one
// shard must be a MergedSource that, after every element, has read no
// shard whose bound lies above the key it just emitted, and every shard
// once drained. Both are closed.
func sameMerge(t *testing.T, name string, got, want relation.KeyedSource, bounds []float64) {
	t.Helper()
	merged, _ := got.(*relation.MergedSource)
	if (merged != nil) != (len(bounds) > 1) {
		t.Fatalf("%s: a set of %d shards opened a %T", name, len(bounds), got)
	}
	for n := 0; ; n++ {
		wt, wk, wo, werr := want.NextKeyed()
		gt, gk, gord, gerr := got.NextKeyed()
		if errors.Is(werr, relation.ErrExhausted) != errors.Is(gerr, relation.ErrExhausted) {
			t.Fatalf("%s: row %d: merge says %v, set says %v", name, n, werr, gerr)
		}
		if errors.Is(werr, relation.ErrExhausted) {
			break
		}
		if werr != nil || gerr != nil {
			t.Fatalf("%s: row %d: %v / %v", name, n, werr, gerr)
		}
		if gt.ID != wt.ID || gt.Score != wt.Score || math.Float64bits(gk) != math.Float64bits(wk) || gord != wo {
			t.Fatalf("%s: row %d: set %s %v %d, merge %s %v %d", name, n, gt.ID, gk, gord, wt.ID, wk, wo)
		}
		if merged == nil {
			continue
		}
		reached := 0
		for _, b := range bounds {
			if b <= gk {
				reached++
			}
		}
		if read := merged.InputsRead(); read > reached {
			t.Fatalf("%s: row %d at key %v: %d shards read, %d bounds reached", name, n, gk, read, reached)
		}
	}
	if merged != nil && merged.InputsRead() != len(bounds) {
		t.Fatalf("%s: drained, %d of %d shards read", name, merged.InputsRead(), len(bounds))
	}
	for _, src := range []relation.KeyedSource{want, got} {
		if c, ok := src.(relation.Closer); ok {
			c.Close()
		}
	}
}

// TestOpenShardSetRefuses: an empty set, an index out of range, one
// repeated or out of order, and a query of another dimension.
func TestOpenShardSetRefuses(t *testing.T) {
	s, err := relation.Partition(relation.TieRelation(t, 41, 150, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards []int
		q      vec.Vector
	}{
		{nil, vec.Of(0, 0)},
		{[]int{5}, vec.Of(0, 0)},
		{[]int{-1, 2}, vec.Of(0, 0)},
		{[]int{1, 1}, vec.Of(0, 0)},
		{[]int{3, 1}, vec.Of(0, 0)},
		{[]int{0, 1}, vec.Of(0, 0, 0)},
		{[]int{2}, vec.Of(0)},
	} {
		if src, err := s.OpenShardSet(tc.shards, relation.DistanceAccess, tc.q); err == nil {
			t.Errorf("OpenShardSet(%v, q of dim %d) opened a %T", tc.shards, tc.q.Dim(), src)
		}
	}
}
