package relation

import (
	"errors"
	"testing"

	"repro/internal/vec"
)

// BenchmarkMergedSource drains a sharded relation through the k-way merge
// under both access kinds. The steady-state emit path (peek, in-place
// refill, one sift-down) must stay allocation-free: the allocs/op of this
// benchmark are dominated by per-shard stream construction, not by the
// per-tuple merge work.
func BenchmarkMergedSource(b *testing.B) {
	const size, dim, shards = 1024, 3, 8
	rel := tieRelation(b, 3, size, dim)
	sh, err := Partition(rel, shards, HashPartition)
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
			}
		})
	}
}
