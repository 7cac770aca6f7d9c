// Package rtree implements an immutable, bulk-loaded R-tree over
// d-dimensional points and the incremental nearest-neighbor traversal of
// Hjaltason & Samet (SIGMOD 1998) — the access paradigm cited by the paper
// as the natural provider of distance-ordered streams. The proximity rank
// join access layer uses it to serve distance-based sequential access
// without materializing a fully sorted relation.
//
// The tree is packed once by Sort-Tile-Recursive and never mutated: there
// are no node objects, only flat slabs (point coordinates, payloads, inner
// bounding boxes, child ids) that hold no pointers, so a built index costs
// the garbage collector nothing to scan and a node's entries sit on
// adjacent cache lines. Any number of traversals may share one tree.
package rtree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/vec"
)

// nodeCap is the number of entries in every node but the last of a level.
const nodeCap = 16

// Tree is an STR-packed R-tree mapping points to payloads of type T.
// Construct with BulkLoad.
//
// Nodes are numbered level by level from the leaves up, the root last.
// Leaf node j owns point entries [j·nodeCap, (j+1)·nodeCap); inner node
// leaves+m owns inner entries [first[m], first[m+1]). Only the last node of
// a level can be short.
type Tree[T any] struct {
	dim    int
	leaves int       // number of leaf nodes; smaller node ids are leaves
	root   int32     // node id of the root
	pts    []float64 // point entries in leaf order, dim coordinates each
	vals   []T       // payload of each point entry
	boxes  []float64 // inner entries: box lo then hi, 2·dim each
	child  []int32   // node id each inner entry points to
	first  []int32   // entry range of each inner node, one sentinel at the end
}

// maxPoints bounds a tree's size so that a leaf cursor's ref fits an
// int32 both as an entry and, once its leaf's distances are cached, as
// cachedRef plus a slot's entries (nnItem).
const maxPoints = cachedRef - nodeCap

// nodesFor returns how many nodes hold the given number of entries.
func nodesFor(entries int) int { return (entries + nodeCap - 1) / nodeCap }

// Len returns the number of stored points.
func (t *Tree[T]) Len() int { return len(t.vals) }

// Dim returns the tree's dimensionality.
func (t *Tree[T]) Dim() int { return t.dim }

// Value returns the payload of point entry e (see NNIterator.NextEntry).
func (t *Tree[T]) Value(e int) T { return t.vals[e] }

// Point returns the coordinates of point entry e as a view of the tree's
// leaf slab: read-only, capacity clipped so an append copies.
func (t *Tree[T]) Point(e int) vec.Vector {
	return vec.Vector(t.pts[e*t.dim : (e+1)*t.dim : (e+1)*t.dim])
}

// BulkLoad builds a tree over point data with the Sort-Tile-Recursive (STR)
// algorithm. pts and values must have equal length and every point must
// have dim coordinates. The points are copied once, into leaf order; the
// tree keeps no reference to pts.
func BulkLoad[T any](dim int, pts []vec.Vector, values []T) *Tree[T] {
	return bulkLoad(dim, pts, values, strTile)
}

// tiler orders run's ids 0..len(run)-1 into Sort-Tile-Recursive order under
// keys. BulkLoad uses strTile; bulkLoad takes the tiler as a parameter so a
// test can build through a reference one.
type tiler func(run []keyed, keys tileKeys)

func bulkLoad[T any](dim int, pts []vec.Vector, values []T, tile tiler) *Tree[T] {
	if dim <= 0 {
		panic("rtree: dimension must be positive")
	}
	if len(pts) != len(values) {
		panic("rtree: pts/values length mismatch")
	}
	if len(pts) > maxPoints {
		panic("rtree: more points than entry ids")
	}
	for i, p := range pts {
		if p.Dim() != dim {
			panic(fmt.Sprintf("rtree: point %d has dim %d, want %d", i, p.Dim(), dim))
		}
	}
	n := len(pts)
	t := &Tree[T]{dim: dim}
	if n == 0 {
		return t
	}

	order := make([]keyed, n)
	tile(order, tileKeys{dim: dim, pts: pts})

	t.pts = make([]float64, n*dim)
	t.vals = make([]T, n)
	for e, o := range order {
		copy(t.pts[e*dim:], pts[o.id])
		t.vals[e] = values[o.id]
	}
	t.leaves = nodesFor(n)
	// level holds one box (lo then hi) per node of the level being packed.
	level := emptyBoxes(t.leaves, dim)
	for e := 0; e < n; e++ {
		p := t.pts[e*dim : (e+1)*dim]
		extend(level[e/nodeCap*2*dim:], p, p)
	}

	inner := 0
	for c := t.leaves; c > 1; c = nodesFor(c) {
		inner += c
	}
	t.boxes = make([]float64, 0, inner*2*dim)
	t.child = make([]int32, 0, inner)
	t.first = []int32{0}
	base := 0 // node id of the level's first node
	for count := t.leaves; count > 1; {
		// Tile this level's nodes by box midpoint, then cut the order into
		// parents; each parent's entries land contiguously in the slabs.
		order = order[:count]
		tile(order, tileKeys{dim: dim, boxes: level})
		parents := nodesFor(count)
		next := emptyBoxes(parents, dim)
		for i, o := range order {
			k := o.id
			box := level[int(k)*2*dim:][:2*dim]
			t.boxes = append(t.boxes, box...)
			t.child = append(t.child, int32(base)+k)
			extend(next[i/nodeCap*2*dim:], box[:dim], box[dim:])
			if i%nodeCap == nodeCap-1 || i == count-1 {
				t.first = append(t.first, int32(len(t.child)))
			}
		}
		base += count
		count, level = parents, next
	}
	t.root = int32(base)
	return t
}

// emptyBoxes returns n boxes (lo then hi, 2·dim each) that cover nothing.
func emptyBoxes(n, dim int) []float64 {
	boxes := make([]float64, n*2*dim)
	for i := range boxes {
		if i/dim%2 == 0 {
			boxes[i] = math.Inf(1) // a lo coordinate
		} else {
			boxes[i] = math.Inf(-1) // a hi coordinate
		}
	}
	return boxes
}

// extend grows the box at the head of box to cover [lo, hi].
func extend(box, lo, hi []float64) {
	dim := len(lo)
	for a := 0; a < dim; a++ {
		box[a] = min(box[a], lo[a])
		box[dim+a] = max(box[dim+a], hi[a])
	}
}

// tileKeys is what a tiler reads keys from: a point's coordinates at the
// leaf level, a node box's midpoint at every level above. It is a value
// holding no closure, so handing it to a tiler allocates nothing.
type tileKeys struct {
	dim   int
	pts   []vec.Vector // the points, when tiling leaves
	boxes []float64    // else the level's node boxes, lo then hi
}

// key returns entry id's key on axis.
func (k tileKeys) key(id int32, axis int) float64 {
	if k.pts != nil {
		return k.pts[id][axis]
	}
	box := k.boxes[int(id)*2*k.dim:]
	return (box[axis] + box[k.dim+axis]) / 2
}

// keyed is one entry of the tiling scratch: an entry id and its key on the
// axis being tiled.
type keyed struct {
	key float64
	id  int32
}

// before orders entries by key, equal keys by id. Ids are distinct, so on
// keys that are not NaN this is a total order: a tiling under it depends on
// the input alone, not on how the entries were selected or sorted.
func (a keyed) before(b keyed) bool { return a.key < b.key || a.key == b.key && a.id < b.id }

// sortKeyed sorts run into the tiling order.
func sortKeyed(run []keyed) {
	slices.SortFunc(run, func(a, b keyed) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	})
}

// strTile orders run's ids 0..len(run)-1 in Sort-Tile-Recursive order under
// keys: cut the entries into slabs on the first axis, then recurse on the
// next axis inside each slab. A slab is a whole number of nodes, so when
// the caller cuts the final order into consecutive runs of nodeCap no node
// straddles two tiles. Only a run that no later axis re-tiles is sorted —
// one of at most nodeCap entries, or one on the last axis — and its order
// is the node's entry order; every other run is cut by selection, which
// yields the same slabs a sort would because before is a total order. A key
// is read once per id and tiled axis.
func strTile(run []keyed, keys tileKeys) {
	for i := range run {
		run[i].id = int32(i)
	}
	if len(run) > nodeCap {
		strTileAxis(run, 0, keys)
	}
}

// strTileAxis tiles a run of more than nodeCap entries from axis on.
func strTileAxis(run []keyed, axis int, keys tileKeys) {
	for i := range run {
		run[i].key = keys.key(run[i].id, axis)
	}
	dim := keys.dim
	if axis == dim-1 {
		sortKeyed(run)
		return
	}
	nodes := nodesFor(len(run))
	slabs := int(math.Ceil(math.Pow(float64(nodes), 1/float64(dim-axis))))
	size := (nodes + slabs - 1) / slabs * nodeCap
	cutSlabs(run, 0, size, 2*bits.Len(uint(len(run))))
	for start := 0; start < len(run); start += size {
		if slab := run[start:min(start+size, len(run))]; len(slab) <= nodeCap {
			sortKeyed(slab)
		} else {
			strTileAxis(slab, axis+1, keys)
		}
	}
}

// cutSlabs reorders run, which starts at position off of its axis's run,
// so that every position that is a multiple of size divides smaller
// entries from larger ones: each slab then holds exactly the entries a
// sort would put there, in no particular order. Each round is one Hoare
// partition around the entry at the cut nearest the middle (Hoare's FIND
// pivot), after which only the sides with a cut still inside them go on:
// O(n log s) for s slabs, not a sort's O(n log n). rounds is the
// partition depth left, as in introsort; a range that runs out of it is
// sorted instead, so no input costs more than O(n log n).
func cutSlabs(run []keyed, off, size, rounds int) {
	for {
		first := (off/size + 1) * size             // first cut past run's head
		last := (off + len(run) - 1) / size * size // last cut before its end
		if first > last {
			return
		}
		if rounds == 0 {
			sortKeyed(run)
			return
		}
		rounds--
		k := (off + len(run)/2 + size/2) / size * size
		pivot := run[min(max(k, first), last)-off]
		i, j := 0, len(run)-1
		for i <= j {
			for run[i].before(pivot) {
				i++
			}
			for pivot.before(run[j]) {
				j--
			}
			if i <= j {
				run[i], run[j] = run[j], run[i]
				i++
				j--
			}
		}
		// run[:j+1] holds no entry after the pivot and run[i:] none before it.
		cutSlabs(run[:j+1], off, size, rounds)
		run, off = run[i:], off+i
	}
}
