package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestRectBasics(t *testing.T) {
	r, err := NewRect(vec.Of(0, 0), vec.Of(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Min.Equal(vec.Of(0, 0)) || !r.Max.Equal(vec.Of(2, 3)) {
		t.Fatalf("NewRect = %+v", r)
	}
	if !r.Contains(vec.Of(1, 1)) || !r.Contains(vec.Of(2, 3)) || r.Contains(vec.Of(3, 1)) {
		t.Fatal("Contains wrong")
	}
}

func TestNewRectRejectsInverted(t *testing.T) {
	if _, err := NewRect(vec.Of(1), vec.Of(0)); err == nil {
		t.Fatal("inverted rect accepted")
	}
	if _, err := NewRect(vec.Of(1), vec.Of(0, 1)); err == nil {
		t.Fatal("mismatched dims accepted")
	}
}

func TestRectMinDist2(t *testing.T) {
	r := Rect{Min: vec.Of(0, 0), Max: vec.Of(1, 1)}
	if d := r.MinDist2(vec.Of(0.5, 0.5)); d != 0 {
		t.Fatalf("inside dist = %v", d)
	}
	if d := r.MinDist2(vec.Of(2, 0.5)); d != 1 {
		t.Fatalf("side dist = %v", d)
	}
	if d := r.MinDist2(vec.Of(2, 2)); d != 2 {
		t.Fatalf("corner dist = %v", d)
	}
}

func TestBulkLoadAndKNearest(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 300
	pts := make([]vec.Vector, n)
	vals := make([]int, n)
	for i := range pts {
		pts[i] = vec.Of(r.NormFloat64()*10, r.NormFloat64()*10, r.NormFloat64()*10)
		vals[i] = i
	}
	tr := BulkLoad(3, pts, vals)
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	q := vec.Of(0, 0, 0)
	got, dists := tr.KNearest(q, 10)
	// Brute force.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pts[idx[a]].Dist(q) < pts[idx[b]].Dist(q) })
	for i := 0; i < 10; i++ {
		if math.Abs(dists[i]-pts[idx[i]].Dist(q)) > 1e-12 {
			t.Fatalf("kNN #%d: got %d at %v, want %d at %v", i, got[i], dists[i], idx[i], pts[idx[i]].Dist(q))
		}
	}
}

func TestNNIteratorEmptyAndExhaustion(t *testing.T) {
	tr := BulkLoad[string](2, nil, nil)
	if tr.Len() != 0 || tr.Dim() != 2 {
		t.Fatalf("empty tree: Len %d Dim %d", tr.Len(), tr.Dim())
	}
	it := tr.NearestNeighbors(vec.Of(0, 0))
	if _, _, ok := it.Next(); ok {
		t.Fatal("empty tree yielded an entry")
	}
	tr = BulkLoad(2, []vec.Vector{vec.Of(1, 0)}, []string{"a"})
	it = tr.NearestNeighbors(vec.Of(0, 0))
	v, d, ok := it.Next()
	if !ok || v != "a" || d != 1 {
		t.Fatalf("Next = %v %v %v", v, d, ok)
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := it.Next(); ok {
			t.Fatal("exhausted iterator yielded an entry")
		}
	}
}

// Property: the incremental NN iterator emits every point exactly once, in
// exactly brute-force distance order, across dimensions and sizes.
func TestQuickNNMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		n := 1 + r.Intn(120)
		pts := make([]vec.Vector, n)
		vals := make([]int, n)
		for i := range pts {
			p := vec.New(d)
			for j := range p {
				p[j] = r.NormFloat64() * 5
			}
			pts[i] = p
			vals[i] = i
		}
		q := vec.New(d)
		for j := range q {
			q[j] = r.NormFloat64() * 5
		}
		it := BulkLoad(d, pts, vals).NearestNeighbors(q)
		prev := -1.0
		seen := make([]bool, n)
		count := 0
		for {
			v, dist, ok := it.Next()
			if !ok {
				break
			}
			if dist < prev {
				return false // out of order
			}
			if seen[v] {
				return false // duplicate
			}
			if dist != pts[v].Dist(q) {
				return false // wrong distance
			}
			seen[v] = true
			prev = dist
			count++
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bulk load did not panic")
		}
	}()
	BulkLoad(2, []vec.Vector{vec.Of(0, 0)}, []int{})
}

func TestBulkLoadWrongDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-dim point did not panic")
		}
	}()
	BulkLoad(2, []vec.Vector{vec.Of(0, 0), vec.Of(1)}, []int{0, 1})
}
