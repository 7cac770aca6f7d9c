package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vec"
)

// check walks the slabs and verifies the packed tree's invariants: every
// node is referenced exactly once and from the level above, every child
// box lies inside its parent's and every point inside its leaf's, every
// stored box is exactly the union of what lies under it, every node but
// the last of a level is full, and the leaves' entry counts sum to Len.
func (t *Tree[T]) check() error {
	n, dim := t.Len(), t.dim
	if len(t.pts) != n*dim {
		return fmt.Errorf("%d coordinates for %d points of dim %d", len(t.pts), n, dim)
	}
	if n == 0 {
		if t.leaves != 0 || len(t.child) != 0 {
			return fmt.Errorf("empty tree has %d leaves, %d inner entries", t.leaves, len(t.child))
		}
		return nil
	}
	if want := nodesFor(n); t.leaves != want {
		return fmt.Errorf("%d leaves for %d points, want %d", t.leaves, n, want)
	}
	if len(t.boxes) != len(t.child)*2*dim || len(t.first) == 0 || int(t.first[len(t.first)-1]) != len(t.child) {
		return fmt.Errorf("slab lengths disagree: %d box floats, %d children, first %v", len(t.boxes), len(t.child), t.first)
	}
	nodes := t.leaves + len(t.first) - 1
	if int(t.root) != nodes-1 {
		return fmt.Errorf("root %d is not the last of %d nodes", t.root, nodes)
	}

	// Level boundaries in node-id space, leaves first.
	levelOf := make([]int, nodes)
	base, count := 0, t.leaves
	for level := 0; ; level++ {
		for id := base; id < base+count; id++ {
			levelOf[id] = level
			size := min(nodeCap, n-id*nodeCap)
			if level > 0 {
				m := id - t.leaves
				size = int(t.first[m+1] - t.first[m])
			}
			if size < 1 || size > nodeCap || (size < nodeCap && id != base+count-1) {
				return fmt.Errorf("node %d (level %d) has %d entries and is not the last of its level", id, level, size)
			}
		}
		base += count
		if count == 1 {
			break
		}
		count = nodesFor(count)
	}
	if base != nodes {
		return fmt.Errorf("levels account for %d nodes, slabs hold %d", base, nodes)
	}

	seen := make([]bool, nodes)
	points := 0
	// walk checks the subtree under id against the box its parent stores for
	// it (nil for the root) and returns the box it actually covers.
	var walk func(id int, stored *Rect) (Rect, error)
	walk = func(id int, stored *Rect) (Rect, error) {
		if seen[id] {
			return Rect{}, fmt.Errorf("node %d referenced twice", id)
		}
		seen[id] = true
		box := emptyBoxes(1, dim)
		if id < t.leaves {
			for e := id * nodeCap; e < min((id+1)*nodeCap, n); e++ {
				p := t.pts[e*dim : (e+1)*dim]
				if stored != nil && !stored.Contains(p) {
					return Rect{}, fmt.Errorf("point entry %d %v outside leaf %d's box %v", e, p, id, *stored)
				}
				extend(box, p, p)
				points++
			}
		} else {
			m := id - t.leaves
			for e := int(t.first[m]); e < int(t.first[m+1]); e++ {
				c := int(t.child[e])
				if c < 0 || c >= nodes || levelOf[c] != levelOf[id]-1 {
					return Rect{}, fmt.Errorf("node %d (level %d) points at node %d", id, levelOf[id], c)
				}
				entry := Rect{Min: t.boxes[e*2*dim:][:dim], Max: t.boxes[e*2*dim+dim:][:dim]}
				if stored != nil && !(stored.Contains(entry.Min) && stored.Contains(entry.Max)) {
					return Rect{}, fmt.Errorf("entry %d box %v outside node %d's box %v", e, entry, id, *stored)
				}
				under, err := walk(c, &entry)
				if err != nil {
					return Rect{}, err
				}
				if !entry.Min.Equal(under.Min) || !entry.Max.Equal(under.Max) {
					return Rect{}, fmt.Errorf("entry %d stores box %v, node %d covers %v", e, entry, c, under)
				}
				extend(box, entry.Min, entry.Max)
			}
		}
		return Rect{Min: box[:dim], Max: box[dim:]}, nil
	}
	if _, err := walk(int(t.root), nil); err != nil {
		return err
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("node %d unreachable from the root", id)
		}
	}
	if points != n {
		return fmt.Errorf("leaves hold %d points, Len is %d", points, n)
	}
	return nil
}

// oracleData builds n points of dimension d that exercise the tie paths:
// a third on a small integer grid (duplicate points and many exact-distance
// ties), the rest Gaussian, with every seventh point a copy of an earlier
// one.
func oracleData(r *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(d)
		switch {
		case i%7 == 6:
			copy(p, pts[r.Intn(i)])
		case i%3 == 0:
			for j := range p {
				p[j] = float64(r.Intn(5) - 2)
			}
		default:
			for j := range p {
				p[j] = r.NormFloat64() * 3
			}
		}
		pts[i] = p
	}
	return pts
}

var oracleSizes = []int{0, 1, 15, 16, 17, 255, 256, 257, 5000}

// TestNNOracle compares the traversal with brute force over dims 1–8 and
// sizes around every node-capacity boundary: every value exactly once,
// distances non-decreasing, each bit-equal to Vector.Dist's, and the
// distance sequence bit-equal to the sorted brute-force one. Queries sit on
// a grid point (ties), on a stored point (distance zero) and off-grid.
func TestNNOracle(t *testing.T) {
	for d := 1; d <= 8; d++ {
		for _, n := range oracleSizes {
			r := rand.New(rand.NewSource(int64(100*d + n)))
			pts := oracleData(r, n, d)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = i
			}
			tr := BulkLoad(d, pts, vals)
			if err := tr.check(); err != nil {
				t.Fatalf("dim %d n %d: %v", d, n, err)
			}
			queries := []vec.Vector{vec.New(d), vec.New(d)}
			for j := range queries[1] {
				queries[1][j] = r.NormFloat64() * 3
			}
			if n > 0 {
				queries = append(queries, pts[n/2].Clone())
			}
			for _, q := range queries {
				want := make([]float64, n)
				for i, p := range pts {
					want[i] = p.Dist2(q)
				}
				slices.Sort(want)
				seen := make([]bool, n)
				it := tr.NearestNeighbors(q)
				for rank := 0; ; rank++ {
					v, dist, ok := it.Next()
					if !ok {
						if rank != n {
							t.Fatalf("dim %d n %d q %v: stream ended after %d", d, n, q, rank)
						}
						break
					}
					if rank >= n || seen[v] {
						t.Fatalf("dim %d n %d q %v: value %d emitted twice or past the end (rank %d)", d, n, q, v, rank)
					}
					seen[v] = true
					if own := pts[v].Dist2(q); math.Float64bits(dist) != math.Float64bits(own) {
						t.Fatalf("dim %d n %d q %v: value %d at %x, Dist2 says %x", d, n, q, v, math.Float64bits(dist), math.Float64bits(own))
					}
					if math.Float64bits(dist) != math.Float64bits(want[rank]) {
						t.Fatalf("dim %d n %d q %v: rank %d at %v, brute force has %v", d, n, q, rank, dist, want[rank])
					}
				}
			}
		}
	}
}

// TestBulkLoadCopiesPoints: the tree keeps no reference to its input.
func TestBulkLoadCopiesPoints(t *testing.T) {
	pts := []vec.Vector{vec.Of(1, 1), vec.Of(5, 5)}
	tr := BulkLoad(2, pts, []int{0, 1})
	pts[0][0], pts[0][1] = 100, 100
	if v, d, _ := tr.NearestNeighbors(vec.Of(0, 0)).Next(); v != 0 || d != 2 {
		t.Fatalf("nearest = %d at %v after the input moved", v, d)
	}
}

// pushFixture is the fixed 20 000 × dim 4 data set the push ceiling below
// was recorded on.
func pushFixture() (*Tree[int], []vec.Vector) {
	return uniformFixture(20000, 4, 20000)
}

// uniformFixture is a tree over n points and 20 queries drawn uniformly
// from the unit cube of dimension d with the given seed.
func uniformFixture(n, d int, seed int64) (*Tree[int], []vec.Vector) {
	pts, queries := uniformPoints(n, d, seed)
	return BulkLoad(d, pts, make([]int, len(pts))), queries
}

// uniformPoints is uniformFixture's n points and 20 queries.
func uniformPoints(n, d int, seed int64) (pts, queries []vec.Vector) {
	r := rand.New(rand.NewSource(seed))
	draw := func() vec.Vector {
		p := vec.New(d)
		for j := range p {
			p[j] = r.Float64()
		}
		return p
	}
	pts = make([]vec.Vector, n)
	for i := range pts {
		pts[i] = draw()
	}
	queries = make([]vec.Vector, 20)
	for i := range queries {
		queries[i] = draw()
	}
	return pts, queries
}

// prefixPushes returns the heap pushes and leaf opens that k-neighbour
// prefixes at every query cost together.
func prefixPushes(t *testing.T, tr *Tree[int], queries []vec.Vector, k int) (pushes, opened int) {
	t.Helper()
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		it := tr.NearestNeighbors(q)
		for i := 0; i < k; i++ {
			if _, _, ok := it.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}
		pushes += int(it.seq)
		opened += int(it.opened)
	}
	return pushes, opened
}

// TestHeapPushCeiling guards the tiling and the leaf cursors: the heap
// pushes a 100-neighbour prefix costs are a count that repeats exactly, so
// a bulk load that starts cutting leaves across tile boundaries again (or
// any other loss of packing quality), or a traversal that queues points one
// by one again, shows here without a timing.
func TestHeapPushCeiling(t *testing.T) {
	// Recorded 6 232 (5 501 nodes, 731 leaf cursors) with one cursor per
	// opened leaf. Queueing every point of an opened leaf took 17 197 with
	// tile-aligned slabs, and 29 112 with slabs of ceil(len/slabs)
	// entries, leaves straddling tiles.
	const ceiling = 6_250
	tr, queries := pushFixture()
	if pushes, _ := prefixPushes(t, tr, queries, 100); pushes > ceiling {
		t.Fatalf("%d heap pushes for %d 100-step prefixes, ceiling %d", pushes, len(queries), ceiling)
	}
}

// TestHeapPushCeilingDim8: at dim 8 a prefix opens far more leaves than it
// returns points from, which is where a cursor per leaf instead of an item
// per point pays most.
func TestHeapPushCeilingDim8(t *testing.T) {
	// Recorded 12 409 (9 744 nodes, 2 665 leaf cursors); queueing every
	// point of an opened leaf took 52 368.
	const ceiling = 12_500
	tr, queries := uniformFixture(7500, 8, 7500)
	if pushes, _ := prefixPushes(t, tr, queries, 50); pushes > ceiling {
		t.Fatalf("%d heap pushes for %d 50-step prefixes, ceiling %d", pushes, len(queries), ceiling)
	}
}

// TestNextDoesNotAllocate: once the heap slice has grown, draining costs no
// allocation per step.
func TestNextDoesNotAllocate(t *testing.T) {
	tr, queries := pushFixture()
	it := tr.NearestNeighbors(queries[0])
	it.heap = slices.Grow(it.heap, tr.Len()+len(tr.child))
	if allocs := testing.AllocsPerRun(200, func() { it.Next() }); allocs != 0 {
		t.Fatalf("Next allocates %v times per call", allocs)
	}
}

// TestLeafDistCachedOnce: a leaf's squared distances are computed when it
// opens, and once more, into a cached slot, when it returns its first
// point; the leaf's later points rescan the slot. Recomputing them for
// every point returned took 16 × (opens + returns) over the same drain;
// either way the drain is the traversal TestNNOracle holds to brute
// force.
func TestLeafDistCachedOnce(t *testing.T) {
	tr, queries := pushFixture() // 20 000 points: every leaf is full
	for _, q := range queries {
		it := tr.NearestNeighbors(q)
		for i := 0; i < 200; i++ {
			if _, _, ok := it.Next(); !ok {
				t.Fatal("drain ended early")
			}
		}
		cached := uint32(len(it.leaves)) // the leaves that returned a point
		if want := nodeCap * (it.opened + cached); it.dists != want || cached >= 200 {
			t.Fatalf("200-point drain: %d point distances for %d leaves opened, %d of them returning, want %d",
				it.dists, it.opened, cached, want)
		}
		it.Release()
	}
}

// TestBulkLoadAllocations: the build allocates slabs and sort scratch, not
// objects per point (the pointer tree took 2.26 M allocations here).
func TestBulkLoadAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := make([]vec.Vector, 20000)
	for i := range pts {
		pts[i] = vec.Of(r.Float64(), r.Float64(), r.Float64(), r.Float64())
	}
	vals := make([]int, len(pts))
	if allocs := testing.AllocsPerRun(3, func() { BulkLoad(4, pts, vals) }); allocs >= 5000 {
		t.Fatalf("BulkLoad of 20000 x dim 4 allocates %v times, want under 5000", allocs)
	}
}

// TestReleaseRecyclesQueue: a released traversal reports no more points,
// releasing twice is harmless, and a traversal that starts on a released
// queue — grown, and full of another query's items — emits exactly what a
// fresh one does. Opening, reading a batch and releasing then costs the
// iterator and its query, not a queue each time.
func TestReleaseRecyclesQueue(t *testing.T) {
	tr, queries := pushFixture()
	type hit struct {
		val  int
		dist uint64
	}
	prefix := func(it *NNIterator[int], n int) []hit {
		var out []hit
		for len(out) < n {
			v, d, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, hit{v, math.Float64bits(d)})
		}
		return out
	}
	var want [][]hit
	for _, q := range queries {
		want = append(want, prefix(tr.NearestNeighbors(q), 300)) // never released: fresh queues throughout
	}
	for i, q := range queries {
		it := tr.NearestNeighbors(q)
		if got := prefix(it, 300); !slices.Equal(got, want[i]) {
			t.Fatalf("query %d: a traversal on a recycled queue differs from a fresh one", i)
		}
		it.Release()
		it.Release()
		if _, _, ok := it.Next(); ok {
			t.Fatalf("query %d: Next after Release produced a point", i)
		}
	}
	// 2 = iterator + query clone: the scratch goes back to the pool as a
	// pointer, so neither its queue nor a slice header is allocated. An
	// unreleased open that reads 16 points costs those two plus the queue
	// and its growth. A collection mid-run empties the pool, so leave slack;
	// the race detector's pool drops a quarter of what it is handed, which
	// costs the three allocations of a fresh scratch (raceSlack).
	allocs := testing.AllocsPerRun(200, func() {
		it := tr.NearestNeighbors(queries[1])
		for i := 0; i < 16; i++ {
			it.Next()
		}
		it.Release()
	})
	if allocs > 2.5+raceSlack {
		t.Fatalf("open, 16 steps, release: %v allocations, want 2", allocs)
	}
}
