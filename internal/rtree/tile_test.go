package rtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vec"
)

// strTileSorted is strTile's reference: it sorts every run on every axis
// where strTile selects, so its permutation is the one strTile must return.
func strTileSorted(ids []int32, dim int, col []float64, key func(id int32, axis int) float64) {
	for i := range ids {
		ids[i] = int32(i)
	}
	strTileSortedAxis(ids, 0, dim, col, key)
}

func strTileSortedAxis(ids []int32, axis, dim int, col []float64, key func(id int32, axis int) float64) {
	if len(ids) <= nodeCap || axis >= dim {
		return
	}
	for _, id := range ids {
		col[id] = key(id, axis)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		switch x, y := col[a], col[b]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return int(a - b)
	})
	nodes := nodesFor(len(ids))
	slabs := int(math.Ceil(math.Pow(float64(nodes), 1/float64(dim-axis))))
	size := (nodes + slabs - 1) / slabs * nodeCap
	for start := 0; start < len(ids); start += size {
		strTileSortedAxis(ids[start:min(start+size, len(ids))], axis+1, dim, col, key)
	}
}

// sortedTiler runs the oracle as a tiler, so bulkLoad can build through it.
func sortedTiler(run []keyed, keys tileKeys) {
	ids := make([]int32, len(run))
	strTileSorted(ids, keys.dim, make([]float64, len(run)), keys.key)
	for i, id := range ids {
		run[i].id = id
	}
}

// tilePatterns are the coordinate layouts the tiler is held to the oracle
// on: uniform, a 2-value grid (ties on every axis), one point repeated
// (only ids order), and points sorted forwards or backwards on every axis.
var tilePatterns = []struct {
	name  string
	coord func(r *rand.Rand, i, n int) float64
}{
	{"uniform", func(r *rand.Rand, _, _ int) float64 { return r.Float64() }},
	{"grid2", func(r *rand.Rand, _, _ int) float64 { return float64(r.Intn(2)) }},
	{"equal", func(*rand.Rand, int, int) float64 { return 0.5 }},
	{"presorted", func(_ *rand.Rand, i, _ int) float64 { return float64(i) }},
	{"reversed", func(_ *rand.Rand, i, n int) float64 { return float64(n - i) }},
}

func patternPoints(r *rand.Rand, n, d int, coord func(r *rand.Rand, i, n int) float64) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = vec.New(d)
		for j := range pts[i] {
			pts[i][j] = coord(r, i, n)
		}
	}
	return pts
}

// tileSizes returns oracleSizes plus, for dim d, sizes at ±1 of multiples of
// nodeCap and of the first axis's slab.
func tileSizes(d int) []int {
	sizes := slices.Clone(oracleSizes)
	for _, nodes := range []int{2, 3, 8, 27, 64, 81, 256} {
		n := nodes * nodeCap
		slab := (nodes + slabsFor(nodes, d) - 1) / slabsFor(nodes, d) * nodeCap
		for _, m := range []int{n, slab, 2 * slab} {
			sizes = append(sizes, m-1, m, m+1)
		}
	}
	slices.Sort(sizes)
	return slices.Compact(sizes)
}

// slabsFor is the slab count strTileAxis cuts a run of nodes into on the
// first of d axes.
func slabsFor(nodes, d int) int {
	return int(math.Ceil(math.Pow(float64(nodes), 1/float64(d))))
}

// tileBoth tiles pts with strTile and with the oracle and returns the two
// permutations.
func tileBoth(pts []vec.Vector, d int) (got, want []int32) {
	keys := tileKeys{dim: d, pts: pts}
	run := make([]keyed, len(pts))
	strTile(run, keys)
	got = make([]int32, len(run))
	for i, e := range run {
		got[i] = e.id
	}
	want = make([]int32, len(pts))
	strTileSorted(want, d, make([]float64, len(pts)), keys.key)
	return got, want
}

// TestSTRTilingMatchesSort: selecting slabs yields the permutation sorting
// them did, on every pattern, dims 1–8 and sizes around node and slab
// boundaries; and a built tree's five slabs equal a build through the
// oracle, bit for bit.
func TestSTRTilingMatchesSort(t *testing.T) {
	for d := 1; d <= 8; d++ {
		for _, n := range tileSizes(d) {
			for _, p := range tilePatterns {
				r := rand.New(rand.NewSource(int64(1000*d + n)))
				got, want := tileBoth(patternPoints(r, n, d, p.coord), d)
				if !slices.Equal(got, want) {
					t.Fatalf("dim %d n %d %s: tiling differs from the sorted one", d, n, p.name)
				}
			}
		}
	}
	for _, f := range []struct{ n, d int }{{20000, 4}, {7500, 8}} {
		pts, _ := uniformPoints(f.n, f.d, int64(f.n))
		vals := make([]int, len(pts))
		for i := range vals {
			vals[i] = i
		}
		got, want := BulkLoad(f.d, pts, vals), bulkLoad(f.d, pts, vals, sortedTiler)
		if err := got.check(); err != nil {
			t.Fatal(err)
		}
		if got.leaves != want.leaves || got.root != want.root ||
			!slices.Equal(got.pts, want.pts) || !slices.Equal(got.vals, want.vals) ||
			!slices.Equal(got.boxes, want.boxes) || !slices.Equal(got.child, want.child) ||
			!slices.Equal(got.first, want.first) {
			t.Fatalf("%d x dim %d: tree differs from the one the sorted tiler builds", f.n, f.d)
		}
	}
}

// TestSTRTilingGuard: a selection that runs out of partition rounds sorts
// its range. With no rounds the run comes back fully sorted, and with a few
// every slab still holds the entries the sort puts there.
func TestSTRTilingGuard(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, p := range tilePatterns {
		for _, n := range []int{17, 100, 1000, 5000} {
			want := make([]keyed, n)
			for i := range want {
				want[i] = keyed{p.coord(r, i, n), int32(i)}
			}
			r.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			for _, size := range []int{nodeCap, 3 * nodeCap, 10 * nodeCap} {
				for rounds := 0; rounds <= 3; rounds++ {
					got := slices.Clone(want)
					cutSlabs(got, 0, size, rounds)
					sorted := slices.Clone(want)
					sortKeyed(sorted)
					if rounds == 0 && n > size && !slices.Equal(got, sorted) {
						t.Fatalf("%s n %d size %d: no rounds left, run not sorted", p.name, n, size)
					}
					for start := 0; start < n; start += size {
						g := got[start:min(start+size, n)]
						sortKeyed(g)
						if !slices.Equal(g, sorted[start:min(start+size, n)]) {
							t.Fatalf("%s n %d size %d rounds %d: slab at %d holds other entries", p.name, n, size, rounds, start)
						}
					}
				}
			}
		}
	}
}

// FuzzSTRTiling holds strTile to the oracle on arbitrary points: the first
// byte picks the dimension, then each coordinate is two bytes, so inputs
// carry both ties and adversarial orders. The seeds are the tilePatterns
// shapes, every coordinate scaled by 50 (at most 50 000).
func FuzzSTRTiling(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, p := range tilePatterns {
		for _, s := range []struct{ n, d int }{{17, 1}, {257, 2}, {600, 4}, {1000, 8}} {
			pts := patternPoints(r, s.n, s.d, p.coord)
			data := []byte{byte(s.d - 1)}
			for _, pt := range pts {
				for _, x := range pt {
					data = binary.BigEndian.AppendUint16(data, uint16(x*50))
				}
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := 1 + int(data[0])%8
		n := min((len(data)-1)/(2*d), 5000)
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = vec.New(d)
			for j := range pts[i] {
				pts[i][j] = float64(binary.BigEndian.Uint16(data[1+2*(i*d+j):]))
			}
		}
		if got, want := tileBoth(pts, d); !slices.Equal(got, want) {
			t.Fatalf("dim %d n %d: tiling differs from the sorted one", d, n)
		}
	})
}
