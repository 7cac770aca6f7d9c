package relation

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vec"
)

func randomRelation(t *testing.T, seed int64, size, dim int) *Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for c := range v {
			v[c] = r.NormFloat64()
		}
		tuples[i] = Tuple{ID: string(rune('a' + i%26)), Score: 0.1 + 0.9*r.Float64(), Vec: v}
	}
	rel, err := New("idx", 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// oneShard is the index built once over a whole relation: a one-shard
// Partition, its score order and R-tree built up front.
func oneShard(t testing.TB, rel *Relation) *Sharded {
	t.Helper()
	s, err := Partition(rel, 1, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustOpen opens in's stream through OpenSource, failing the test on
// error.
func mustOpen(t testing.TB, in Input, kind AccessKind, q vec.Vector) Source {
	t.Helper()
	src, err := OpenSource(in, kind, q)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestOneShardSharedTraversals runs many concurrent traversals over one
// shared one-shard partition, each opened through OpenSource, and checks
// each against the plain relation's scan for the same query:
// the same tuples in the same order, score and distance bits and
// ordinals included.
func TestOneShardSharedTraversals(t *testing.T) {
	rel := randomRelation(t, 42, 120, 3)
	ix := oneShard(t, rel)
	r := rand.New(rand.NewSource(43))
	queries := make([]vec.Vector, 16)
	for i := range queries {
		q := vec.New(3)
		for c := range q {
			q[c] = r.NormFloat64()
		}
		queries[i] = q
	}

	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q vec.Vector) {
			defer wg.Done()
			src, err := OpenSource(ix, DistanceAccess, q)
			if err != nil {
				t.Error(err)
				return
			}
			if src.Kind() != DistanceAccess || src.Relation() != rel {
				t.Errorf("query %v: stream kind %v over %q, want distance over %q", q, src.Kind(), src.Relation().Name, rel.Name)
			}
			want, err := OpenSource(rel, DistanceAccess, q)
			if err != nil {
				t.Error(err)
				return
			}
			if err := sameKeyedStream(src, want); err != nil {
				t.Errorf("query %v: one-shard R-tree vs scan: %v", q, err)
			}
		}(q)
	}
	wg.Wait()
}

// TestOneShardDimMismatch: OpenSource over a one-shard partition rejects
// a distance query of the wrong dimensionality.
func TestOneShardDimMismatch(t *testing.T) {
	ix := oneShard(t, randomRelation(t, 7, 10, 2))
	if _, err := OpenSource(ix, DistanceAccess, vec.Of(1, 2, 3)); err == nil {
		t.Fatal("OpenSource accepted a 3-d query over a 2-d relation")
	}
}
