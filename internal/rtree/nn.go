package rtree

import (
	"math"
	"sync"

	"repro/internal/vec"
)

// NNIterator streams points in non-decreasing Euclidean distance from a
// query point using the incremental best-first traversal of Hjaltason &
// Samet. Construction is O(1); each Next pops from a priority queue that
// holds nodes, keyed by the minimum distance to their bounding box, and
// one cursor per opened leaf, keyed by the exact distance of the nearest
// point of that leaf not yet returned. A cursor is one sorted run in the
// queue: popping it returns its point and re-keys it in place at the
// leaf's next point, so a leaf costs one push however many of its points
// are returned, and a point never returned costs none. Opening a leaf
// computes its squared distances to find the cursor's first point; most
// opened leaves return nothing. A leaf's first point returned computes
// them once more, into a slot of the traversal's scratch, and the
// cursor's later advances rescan that slot. The queue is a binary heap of
// 16-byte pointer-free items kept inline; a steady-state Next allocates
// nothing but the amortised growth of the queue and the slots, and a
// traversal whose owner calls Release hands both to the next one.
type NNIterator[T any] struct {
	tree   *Tree[T]
	query  []float64
	heap   []nnItem
	leaves []openLeaf // the leaves that returned a point, in that order
	scr    *nnScratch // where heap and leaves go back on Release
	seq    uint32     // items pushed so far
	opened uint32     // leaves opened so far
	dists  uint32     // point distances computed so far
}

// nnItem is one queued node or leaf cursor.
type nnItem struct {
	dist2 float64
	// ref is a node id, or for a cursor ^e, e the entry of its current
	// point, until its leaf's distances are cached, and ^(cachedRef +
	// slot·nodeCap + j) after: entry j of the leaf cached in leaves[slot].
	ref int32
	seq uint32 // push order, the last tiebreaker
}

// cachedRef marks a cursor whose leaf's distances are cached; entries
// lie below it (maxPoints).
const cachedRef = 1 << 30

// openLeaf is a leaf that returned a point: its first entry and the
// squared distances of its points to the query.
type openLeaf struct {
	base int32
	d2   [nodeCap]float64
}

// maxPooledLeaves caps the leaf slots a released traversal hands on, so
// that one very deep traversal does not leave every pooled scratch at its
// size. A traversal takes a slot per leaf that returns a point, at most
// one per point returned, so one that returns up to 128 points keeps its
// slots pooled.
const maxPooledLeaves = 128

// nnScratch is a traversal's reusable memory: its queue and its leaf
// slots. A first neighbour costs about nodeCap pushes per inner level, so
// a fresh queue has room for 128 items (2 KiB); 16 leaf slots are 2 KiB
// more. Release keeps the queue at the size it grew to, the leaf slots up
// to maxPooledLeaves.
type nnScratch struct {
	heap   []nnItem
	leaves []openLeaf
}

// before orders the queue: by squared distance, nodes before cursors at
// equal distance (a node may still hold a point at exactly that distance),
// then by push order so the traversal is deterministic.
func (a nnItem) before(b nnItem) bool {
	if a.dist2 != b.dist2 {
		return a.dist2 < b.dist2
	}
	if an, bn := a.ref >= 0, b.ref >= 0; an != bn {
		return an
	}
	return a.seq < b.seq
}

// NearestNeighbors returns an iterator over all points ordered by distance
// from q.
func (t *Tree[T]) NearestNeighbors(q vec.Vector) *NNIterator[T] {
	if q.Dim() != t.dim {
		panic("rtree: query dimension mismatch")
	}
	s, _ := scratchPool.Get().(*nnScratch)
	if s == nil {
		s = &nnScratch{heap: make([]nnItem, 0, 128), leaves: make([]openLeaf, 0, 16)}
	}
	it := &NNIterator[T]{tree: t, query: q.Clone(), heap: s.heap, leaves: s.leaves, scr: s}
	if t.Len() > 0 {
		it.push(0, t.root)
	}
	return it
}

// scratchPool holds the scratch of released traversals. A shard server
// opens a traversal per remote stream and most end after one batch of
// rows: their queues (2 KiB, more once grown) were a quarter of what a
// coordinator topology allocated per query, and the collector's cycles
// are its latency tail. A pooled *nnScratch goes back without the slice
// header a pooled slice would allocate.
var scratchPool sync.Pool

// Release ends the traversal — Next reports no more points — and hands
// its scratch to a later NearestNeighbors. For owners that know when a
// traversal is over; one that is merely dropped is collected as before.
func (it *NNIterator[T]) Release() {
	if s := it.scr; s != nil {
		s.heap = it.heap[:0]
		if cap(it.leaves) <= maxPooledLeaves {
			s.leaves = it.leaves[:0]
		}
		it.heap, it.leaves, it.scr = nil, nil, nil
		scratchPool.Put(s)
	}
}

// Next returns the next closest point's payload and its squared Euclidean
// distance. ok is false once all points have been produced.
func (it *NNIterator[T]) Next() (value T, dist2 float64, ok bool) {
	e, dist2, ok := it.NextEntry()
	if ok {
		value = it.tree.vals[e]
	}
	return value, dist2, ok
}

// NextEntry is Next reporting where the point is stored instead of its
// payload: the entry e whose payload is Value(e) and whose coordinates
// are Point(e), the memory the traversal just read its distance from.
//
// A point's squared distance is accumulated in coordinate order exactly as
// vec.Vector.Dist2 does, so the value returned has the same bits as
// p.Dist2(q) — what lets a traversal stand in for a full sort byte for
// byte.
func (it *NNIterator[T]) NextEntry() (e int, dist2 float64, ok bool) {
	t, q := it.tree, it.query
	dim := len(q)
	for len(it.heap) > 0 {
		top := it.heap[0]
		if top.ref < 0 {
			// A cursor: return its point, then move it to the leaf's
			// next point in (distance, entry) order, or retire it. The
			// leaf's first point returned caches its distances in a slot.
			var leaf *openLeaf
			var slot, j int
			if c := int(^top.ref); c < cachedRef {
				base := c / nodeCap * nodeCap
				slot, j = len(it.leaves), c-base
				it.leaves = append(it.leaves, openLeaf{base: int32(base)})
				leaf = &it.leaves[slot]
				it.dists += uint32(leafDist2(&leaf.d2, t.pts[base*dim:min(base+nodeCap, len(t.vals))*dim], q))
			} else {
				slot, j = (c-cachedRef)/nodeCap, (c-cachedRef)%nodeCap
				leaf = &it.leaves[slot]
			}
			base := int(leaf.base)
			if k := nextInLeaf(leaf.d2[:min(nodeCap, len(t.vals)-base)], top.dist2, j); k >= 0 {
				it.heap[0] = nnItem{dist2: leaf.d2[k], ref: ^int32(cachedRef + slot*nodeCap + k), seq: top.seq}
				it.down()
			} else {
				it.pop()
			}
			return base + j, top.dist2, true
		}
		if id := int(top.ref); id < t.leaves {
			// Open the leaf: its cursor takes the node's place.
			var d2 [nodeCap]float64
			base := id * nodeCap
			n := leafDist2(&d2, t.pts[base*dim:min(base+nodeCap, len(t.vals))*dim], q)
			j := nextInLeaf(d2[:n], 0, -1)
			it.heap[0] = nnItem{dist2: d2[j], ref: ^int32(base + j), seq: it.seq}
			it.seq++
			it.opened++
			it.dists += uint32(n)
			it.down()
		} else {
			it.pop()
			m := id - t.leaves
			for e := int(t.first[m]); e < int(t.first[m+1]); e++ {
				box := t.boxes[e*2*dim : (e+1)*2*dim]
				it.push(Rect{Min: box[:dim], Max: box[dim:]}.MinDist2(q), t.child[e])
			}
		}
	}
	return 0, 0, false
}

// leafDist2 fills d2 with the squared distances from q to the points
// stored in pts (at most nodeCap of them, len(q) coordinates each) and
// returns how many there are. Four points go at a time, on four
// independent sums; each sum still starts at zero and adds d·d in
// coordinate order, as vec.Vector.Dist2 does, so every value has its bits.
func leafDist2(d2 *[nodeCap]float64, pts, q []float64) int {
	dim := len(q)
	n := len(pts) / dim
	j := 0
	for ; j+4 <= n; j += 4 {
		p0 := pts[j*dim:][:dim]
		p1 := pts[(j+1)*dim:][:dim]
		p2 := pts[(j+2)*dim:][:dim]
		p3 := pts[(j+3)*dim:][:dim]
		var s0, s1, s2, s3 float64
		for i, x := range q {
			a, b, c, d := p0[i]-x, p1[i]-x, p2[i]-x, p3[i]-x
			s0 += a * a
			s1 += b * b
			s2 += c * c
			s3 += d * d
		}
		d2[j], d2[j+1], d2[j+2], d2[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		p := pts[j*dim:][:dim]
		var s float64
		for i, x := range q {
			d := p[i] - x
			s += d * d
		}
		d2[j] = s
	}
	return n
}

// nextInLeaf returns the entry j whose (d2[j], j) is the least pair after
// (dist2, entry), or -1 when the leaf has none left: an entry up to entry
// must lie beyond dist2, a later one may tie it. Keys compare as bit
// patterns with the sign cleared. Squared distances are never negative, so
// those order as the values do, and a NaN, which only a NaN query makes,
// sorts last instead of stalling the leaf. k lies in [lo, least) exactly
// when k−lo < least−lo in unsigned arithmetic, one compare the compiler
// turns into a conditional move.
func nextInLeaf(d2 []float64, dist2 float64, entry int) int {
	next, least := -1, uint64(math.MaxUint64) // above every key
	lo := distKey(dist2) + 1
	for j, x := range d2 {
		if j == entry+1 {
			lo--
		}
		if k := distKey(x); k-lo < least-lo {
			next, least = j, k
		}
	}
	return next
}

// distKey is a squared distance's sort key.
func distKey(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

func (it *NNIterator[T]) push(dist2 float64, ref int32) {
	item := nnItem{dist2: dist2, ref: ref, seq: it.seq}
	it.seq++
	it.heap = append(it.heap, item)
	h := it.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !item.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = item
}

// pop removes the root.
func (it *NNIterator[T]) pop() {
	n := len(it.heap) - 1
	it.heap[0] = it.heap[n]
	it.heap = it.heap[:n]
	if n > 0 {
		it.down()
	}
}

// down sifts the root down to its place.
func (it *NNIterator[T]) down() {
	h := it.heap
	n := len(h)
	item := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(item) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = item
}
