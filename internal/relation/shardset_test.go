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
// 5-shard partition, and over its relfile mapped back, OpenShardSet
// emits what NewMergedSource does over the same shards' ShardSource
// streams — tuple, key bits and ordinal, element for element — under
// both access kinds. After every element, the set has read no shard
// whose bound lies above the key it just emitted.
func TestOpenShardSetIsMergeOfItsShards(t *testing.T) {
	rel := relation.TieRelation(t, 41, 150, 2)
	queries := []vec.Vector{vec.Of(1.3, 2.1), vec.Of(2, 2), vec.Of(-40, 40)}
	for _, strategy := range []relation.PartitionStrategy{relation.HashPartition, relation.GridPartition} {
		heap, err := relation.Partition(rel, 5, strategy)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.prox")
		if err := relfile.Write(path, heap); err != nil {
			t.Fatal(err)
		}
		f, err := relfile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		mapped, err := f.Load(rel.Name)
		if err != nil {
			t.Fatal(err)
		}
		for tier, s := range map[string]*relation.Sharded{"heap": heap, "relfile": mapped} {
			if s.NumShards() != 5 {
				t.Fatalf("%v/%s: %d shards, want 5", strategy, tier, s.NumShards())
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
					name := fmt.Sprintf("%v/%s/%v/%v/%v", strategy, tier, shards, kind, q)
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
					want, err := relation.NewMergedSource(s.Relation(), kind, inputs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.OpenShardSet(shards, kind, q)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					merged, _ := got.(*relation.MergedSource)
					if (merged != nil) != (len(shards) > 1) {
						t.Fatalf("%s: a set of %d shards opened a %T", name, len(shards), got)
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
					if merged != nil && merged.InputsRead() != len(shards) {
						t.Fatalf("%s: drained, %d of %d shards read", name, merged.InputsRead(), len(shards))
					}
					want.Close()
					if c, ok := got.(relation.Closer); ok {
						c.Close()
					}
				}
				checkSet(relation.ScoreAccess, nil)
				for _, q := range queries {
					checkSet(relation.DistanceAccess, q)
				}
			}
		}
	}
}

// TestOpenShardSetRefuses: an empty set, an index out of range, one
// repeated or out of order, and a query of another dimension.
func TestOpenShardSetRefuses(t *testing.T) {
	s, err := relation.Partition(relation.TieRelation(t, 41, 150, 2), 5, relation.GridPartition)
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
