package rtree

import (
	"math"
	"sync"

	"repro/internal/vec"
)

// NNIterator streams points in non-decreasing Euclidean distance from a
// query point using the incremental best-first traversal of Hjaltason &
// Samet. Construction is O(1); each Next pops from a priority queue that
// mixes nodes (keyed by the minimum distance to their bounding box) and
// point entries (keyed by exact distance). The queue is a binary heap of
// 16-byte pointer-free items kept inline; a steady-state Next allocates
// nothing but the amortised growth of that slice, and a traversal whose
// owner calls Release hands the slice to the next one.
type NNIterator[T any] struct {
	tree  *Tree[T]
	query []float64
	heap  []nnItem
	seq   uint32 // items pushed so far
}

// nnItem is one queued node or point entry.
type nnItem struct {
	dist2 float64
	ref   int32  // node id, or ^index of a point entry
	seq   uint32 // push order, the last tiebreaker
}

// before orders the queue: by squared distance, nodes before point entries
// at equal distance (a node may still hold a point at exactly that
// distance), then by push order so the traversal is deterministic.
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
	// A first neighbour costs about nodeCap pushes per level; 128 items
	// (2 KiB) get a traversal there without regrowing the heap.
	var heap []nnItem
	if released, _ := heapPool.Get().(*[]nnItem); released != nil {
		heap = *released
	} else {
		heap = make([]nnItem, 0, 128)
	}
	it := &NNIterator[T]{tree: t, query: q.Clone(), heap: heap}
	if t.Len() > 0 {
		it.push(0, t.root)
	}
	return it
}

// heapPool holds the queues of released traversals. A shard server opens a
// traversal per remote stream and most end after one batch of rows: their
// queues (2 KiB, 6 KiB once grown) were a quarter of what a coordinator
// topology allocated per query, and the collector's cycles are its
// latency tail.
var heapPool sync.Pool

// Release ends the traversal — Next reports no more points — and hands
// its queue to a later NearestNeighbors. For owners that know when a
// traversal is over; one that is merely dropped is collected as before.
func (it *NNIterator[T]) Release() {
	if it.heap != nil {
		heap := it.heap[:0]
		it.heap = nil
		heapPool.Put(&heap)
	}
}

// Next returns the next closest point's payload and its Euclidean distance.
// ok is false once all points have been produced.
//
// A point's squared distance is accumulated in coordinate order exactly as
// vec.Vector.Dist2 does, so the distance returned has the same bits as
// vec.Euclidean{}.Distance(p, q) — what lets a traversal stand in for a
// full sort byte for byte.
func (it *NNIterator[T]) Next() (value T, dist float64, ok bool) {
	t, q := it.tree, it.query
	dim := len(q)
	for len(it.heap) > 0 {
		top := it.pop()
		if top.ref < 0 {
			return t.vals[^top.ref], math.Sqrt(top.dist2), true
		}
		if id := int(top.ref); id < t.leaves {
			end := min((id+1)*nodeCap, len(t.vals))
			for e := id * nodeCap; e < end; e++ {
				var s float64
				for i, x := range t.pts[e*dim : (e+1)*dim] {
					d := x - q[i]
					s += d * d
				}
				it.push(s, ^int32(e))
			}
		} else {
			m := id - t.leaves
			for e := int(t.first[m]); e < int(t.first[m+1]); e++ {
				box := t.boxes[e*2*dim : (e+1)*2*dim]
				it.push(Rect{Min: box[:dim], Max: box[dim:]}.MinDist2(q), t.child[e])
			}
		}
	}
	return value, 0, false
}

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

func (it *NNIterator[T]) pop() nnItem {
	h := it.heap
	top := h[0]
	n := len(h) - 1
	item := h[n]
	it.heap = h[:n]
	h = h[:n]
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
	if n > 0 {
		h[i] = item
	}
	return top
}

// KNearest returns the k closest points to q with their distances (fewer
// if the tree is smaller).
func (t *Tree[T]) KNearest(q vec.Vector, k int) (values []T, dists []float64) {
	it := t.NearestNeighbors(q)
	for len(values) < k {
		v, d, ok := it.Next()
		if !ok {
			break
		}
		values = append(values, v)
		dists = append(dists, d)
	}
	return values, dists
}
