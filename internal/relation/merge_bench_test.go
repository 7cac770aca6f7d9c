package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// BenchmarkMergedSource drains a sharded relation through the k-way merge
// under both access kinds. The steady-state emit path (peek, in-place
// refill, one sift-down) must stay allocation-free: the allocs/op of this
// benchmark are dominated by per-shard stream construction, not by the
// per-tuple merge work.
//
// The score and distance cases merge the ShardSource streams of 8 grid
// shards with Merge, as the benchmark module does, and close the merge
// as a query closes its streams, so distance buffers go back to their
// pool. The OpenSource cases time what a query opens
// over a 20 000-tuple dim-4 relation cut into 3 or 12 grid shards — the
// shard-set merge, each shard latent at its bound — to its first tuple
// and through a 350-tuple prefix.
func BenchmarkMergedSource(b *testing.B) {
	const size, dim, shards = 1024, 3, 8
	rel := tieRelation(b, 3, size, dim)
	sh, err := Partition(rel, shards)
	if err != nil {
		b.Fatal(err)
	}
	q := vec.Of(1, 2, 1)

	for _, bc := range []struct {
		name string
		kind AccessKind
	}{
		{"score", ScoreAccess},
		{"distance", DistanceAccess},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sources := make([]Source, sh.NumShards())
				for s := range sources {
					src, err := sh.ShardSource(s, bc.kind, q, nil, false)
					if err != nil {
						b.Fatal(err)
					}
					sources[s] = src
				}
				merged, err := sh.Merge(sources)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					_, err := merged.Next()
					if errors.Is(err, ErrExhausted) {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n++
				}
				if n != size {
					b.Fatalf("drained %d tuples, want %d", n, size)
				}
				merged.(Closer).Close()
			}
		})
	}

	uniform := uniformRelation(b, 7, 20_000, 4)
	queries := make([]vec.Vector, 64)
	r := rand.New(rand.NewSource(8))
	for i := range queries {
		queries[i] = vec.Of(r.Float64(), r.Float64(), r.Float64(), r.Float64())
	}
	for _, n := range []int{3, 12} {
		grid, err := Partition(uniform, n)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []AccessKind{ScoreAccess, DistanceAccess} {
			for _, prefix := range []int{1, 350} {
				name := fmt.Sprintf("OpenSource/%v/grid%d/prefix%d", kind, n, prefix)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						src, err := OpenSource(grid, kind, queries[i%len(queries)])
						if err != nil {
							b.Fatal(err)
						}
						for j := 0; j < prefix; j++ {
							if _, err := src.Next(); err != nil {
								b.Fatal(err)
							}
						}
						src.(Closer).Close()
					}
				})
			}
		}
	}
}

// uniformRelation is size tuples at independent uniform points of the
// unit cube of dimension dim, with uniform scores in (0, 1].
func uniformRelation(b *testing.B, seed int64, size, dim int) *Relation {
	r := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for c := range v {
			v[c] = r.Float64()
		}
		tuples[i] = Tuple{ID: fmt.Sprintf("u%05d", i), Score: 1 - r.Float64(), Vec: v}
	}
	rel, err := New("uniform", 1.0, tuples)
	if err != nil {
		b.Fatal(err)
	}
	return rel
}
