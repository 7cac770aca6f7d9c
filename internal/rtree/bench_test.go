package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func benchPoints(n, d int) []vec.Vector {
	r := rand.New(rand.NewSource(1))
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = r.NormFloat64() * 100
		}
		pts[i] = p
	}
	return pts
}

func BenchmarkKNearest10(b *testing.B) {
	pts := benchPoints(10_000, 4)
	vals := make([]int, len(pts))
	tr := BulkLoad(4, pts, vals)
	q := vec.New(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNearest(q, 10)
	}
}

// A small planar set, then the shapes the proxserve benchmark serves
// distance reads from: the 20 000-tuple dim-4 relation of single_engine
// and coord3_wire, and a 7 500-tuple dim-8 relfile shard (relfile_spill).
var benchShapes = []struct {
	name string
	n, d int
}{{"10000x2", 10_000, 2}, {"20000x4", 20_000, 4}, {"7500x8", 7_500, 8}}

// BenchmarkBulkLoad builds benchShapes and the trees the benchmark's
// set-up actually builds from its 20 000 × dim 4 relation: catalog
// admission's 3 shards of ≈ 6 667 (AutoShardCount) and coord3_wire's 12
// grid shards of ≈ 1 667 on the shard servers. Two shapes keep the
// selection's worst cases visible: every point equal (the tiling order is
// the ids alone) and points sorted on every axis.
func BenchmarkBulkLoad(b *testing.B) {
	type shape struct {
		name string
		pts  []vec.Vector
	}
	var shapes []shape
	for _, s := range benchShapes {
		shapes = append(shapes, shape{s.name, benchPoints(s.n, s.d)})
	}
	equal, presorted := make([]vec.Vector, 20_000), make([]vec.Vector, 20_000)
	for i := range equal {
		equal[i] = vec.Of(1, 2, 3, 4)
		presorted[i] = vec.Of(float64(i), float64(i), float64(i), float64(i))
	}
	shapes = append(shapes,
		shape{"6667x4", benchPoints(6_667, 4)},
		shape{"1667x4", benchPoints(1_667, 4)},
		shape{"20000x4-equal", equal},
		shape{"20000x4-presorted", presorted})
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			d := s.pts[0].Dim()
			vals := make([]int, len(s.pts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BulkLoad(d, s.pts, vals)
			}
		})
	}
}

// Open a traversal and take k neighbours: k = 1 is what a shard stream pays
// before its first row, k = 100 a typical pulled prefix, and k = 165 the
// depth a relfile_spill query reaches in each relation. pushes/op and
// leaves/op are the queue's counters, which repeat exactly.
func BenchmarkNNPrefix(b *testing.B) {
	for _, s := range benchShapes {
		pts := benchPoints(s.n, s.d)
		tr := BulkLoad(s.d, pts, make([]int, len(pts)))
		ks := []int{1, 100}
		if s.d == 8 {
			ks = append(ks, 165)
		}
		for _, k := range ks {
			b.Run(fmt.Sprintf("%s/k%d", s.name, k), func(b *testing.B) {
				b.ReportAllocs()
				var pushes, leaves int
				for i := 0; i < b.N; i++ {
					it := tr.NearestNeighbors(pts[i%len(pts)])
					for j := 0; j < k; j++ {
						if _, _, ok := it.Next(); !ok {
							b.Fatal("stream ended early")
						}
					}
					pushes += int(it.seq)
					leaves += int(it.opened)
				}
				b.ReportMetric(float64(pushes)/float64(b.N), "pushes/op")
				b.ReportMetric(float64(leaves)/float64(b.N), "leaves/op")
			})
		}
	}
}
