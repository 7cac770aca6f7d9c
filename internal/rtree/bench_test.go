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

// A small planar set, then the two operating points of the proxserve
// benchmark: a 20 000-tuple dim-4 relation (single_engine, coord3_wire)
// and a 7 500-tuple dim-8 relfile shard (relfile_spill).
var benchShapes = []struct {
	name string
	n, d int
}{{"10000x2", 10_000, 2}, {"20000x4", 20_000, 4}, {"7500x8", 7_500, 8}}

func BenchmarkBulkLoad(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			pts := benchPoints(s.n, s.d)
			vals := make([]int, len(pts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BulkLoad(s.d, pts, vals)
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
