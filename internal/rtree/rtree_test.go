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

// branchyMinDist2 is MinDist2 as it was written before it went branch-free:
// a term only for the axes p lies outside of.
func branchyMinDist2(r Rect, p vec.Vector) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Min[i]:
			d := r.Min[i] - p[i]
			s += d * d
		case p[i] > r.Max[i]:
			d := p[i] - r.Max[i]
			s += d * d
		}
	}
	return s
}

// TestMinDist2MatchesBranchy: the branch-free MinDist2 has the bits of the
// branchy one on random boxes (some flat on an axis, some with a ±0 face)
// for points inside, outside, on a face and at ±0, axis by axis.
func TestMinDist2MatchesBranchy(t *testing.T) {
	negZero := math.Copysign(0, -1)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(8)
		lo, hi := vec.New(d), vec.New(d)
		for i := range lo {
			a, b := r.NormFloat64()*math.Pow(10, float64(r.Intn(7)-3)), r.NormFloat64()
			switch r.Intn(5) {
			case 0:
				b = a // flat on this axis
			case 1:
				a = negZero
			case 2:
				b = 0
			}
			lo[i], hi[i] = min(a, b), max(a, b)
			if lo[i] == hi[i] && r.Intn(2) == 0 {
				lo[i], hi[i] = negZero, 0
			}
		}
		box := Rect{Min: lo, Max: hi}
		for trial := 0; trial < 20; trial++ {
			p := vec.New(d)
			for i := range p {
				span := hi[i] - lo[i]
				switch r.Intn(7) {
				case 0:
					p[i] = lo[i] + r.Float64()*span // inside
				case 1:
					p[i] = lo[i] // on a face
				case 2:
					p[i] = hi[i]
				case 3:
					p[i] = lo[i] - r.ExpFloat64()*(1+span) // below
				case 4:
					p[i] = hi[i] + r.ExpFloat64()*(1+span) // above
				case 5:
					p[i] = 0
				case 6:
					p[i] = negZero
				}
			}
			if math.Float64bits(box.MinDist2(p)) != math.Float64bits(branchyMinDist2(box, p)) {
				t.Logf("box %v point %v: %v, branchy %v", box, p, box.MinDist2(p), branchyMinDist2(box, p))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
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
	sort.Slice(idx, func(a, b int) bool { return pts[idx[a]].Dist2(q) < pts[idx[b]].Dist2(q) })
	for i := 0; i < 10; i++ {
		if math.Abs(dists[i]-pts[idx[i]].Dist2(q)) > 1e-12 {
			t.Fatalf("kNN #%d: got %d at %v, want %d at %v", i, got[i], dists[i], idx[i], pts[idx[i]].Dist2(q))
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

// TestNNNaNQueryEmitsEveryPoint: a query with a NaN coordinate has no
// distance order, but the traversal still ends, after every point exactly
// once — a leaf's NaN distances keep a total order inside the leaf.
func TestNNNaNQueryEmitsEveryPoint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := oracleData(r, 300, 3)
	vals := make([]int, len(pts))
	for i := range vals {
		vals[i] = i
	}
	it := BulkLoad(3, pts, vals).NearestNeighbors(vec.Of(0.5, math.NaN(), 0.5))
	seen := make([]bool, len(pts))
	for rank := 0; ; rank++ {
		v, d, ok := it.Next()
		if !ok {
			if rank != len(pts) {
				t.Fatalf("stream ended after %d of %d points", rank, len(pts))
			}
			break
		}
		if seen[v] || !math.IsNaN(d) {
			t.Fatalf("point %d emitted twice, or at %v from a NaN query", v, d)
		}
		seen[v] = true
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
			if dist != pts[v].Dist2(q) {
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
