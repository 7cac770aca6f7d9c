package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// BenchmarkDistanceStream is the crossover shard.scans is read from: the
// cost of opening one shard's distance stream, reading a prefix and
// closing it, through the shard's R-tree traversal against the scan of
// its columns. One Gaussian shard of 1 667, 7 500 or 30 000 tuples (the
// shard sizes of the benchmark workloads) at dims 4, 6, 8, 12 and 16,
// and from dim 8, where the scan is chosen by shard size too, also of
// 100 000 (a large relation held as one shard); prefixes of 1, 50 and 165
// tuples, and 64 Gaussian queries taken in turn. The tree is built before
// the timer starts, at every dimension.
func BenchmarkDistanceStream(b *testing.B) {
	for _, dim := range []int{4, 6, 8, 12, 16} {
		sizes := []int{1667, 7500, 30000}
		if dim >= scanMinDim {
			sizes = append(sizes, 100000)
		}
		for _, size := range sizes {
			b.Run(fmt.Sprintf("d%d/n%d", dim, size), func(b *testing.B) {
				benchDistanceStream(b, dim, size)
			})
		}
	}
}

func benchDistanceStream(b *testing.B, dim, size int) {
	r := rand.New(rand.NewSource(int64(dim*size + 1)))
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		tuples[i] = Tuple{ID: fmt.Sprintf("t%d", i), Score: 0.5, Vec: v}
	}
	s, err := Partition(MustNew("bench", 1, tuples), 1)
	if err != nil {
		b.Fatal(err)
	}
	sh := &s.shards[0]
	tree := sh.rtree()
	queries := make([]vec.Vector, 64)
	for i := range queries {
		queries[i] = vec.New(dim)
		for d := range queries[i] {
			queries[i][d] = r.NormFloat64()
		}
	}
	open := map[string]func(q vec.Vector) KeyedSource{
		"tree": func(q vec.Vector) KeyedSource {
			return &rtreeSource{rel: sh.rel, cols: sh.cols, tree: tree, it: tree.NearestNeighbors(q)}
		},
		"scan": func(q vec.Vector) KeyedSource { return newScanSource(sh.rel, sh.cols, q) },
	}
	for _, prefix := range []int{1, 50, 165} {
		for _, path := range []string{"tree", "scan"} {
			b.Run(fmt.Sprintf("p%d/%s", prefix, path), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					src := open[path](queries[i%len(queries)])
					for j := 0; j < prefix; j++ {
						if _, _, _, err := src.NextKeyed(); err != nil {
							b.Fatal(err)
						}
					}
					src.(Closer).Close()
				}
			})
		}
	}
}
