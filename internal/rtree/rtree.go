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

// nodesFor returns how many nodes hold the given number of entries.
func nodesFor(entries int) int { return (entries + nodeCap - 1) / nodeCap }

// Len returns the number of stored points.
func (t *Tree[T]) Len() int { return len(t.vals) }

// Dim returns the tree's dimensionality.
func (t *Tree[T]) Dim() int { return t.dim }

// BulkLoad builds a tree over point data with the Sort-Tile-Recursive (STR)
// algorithm. pts and values must have equal length and every point must
// have dim coordinates. The points are copied once, into leaf order; the
// tree keeps no reference to pts.
func BulkLoad[T any](dim int, pts []vec.Vector, values []T) *Tree[T] {
	if dim <= 0 {
		panic("rtree: dimension must be positive")
	}
	if len(pts) != len(values) {
		panic("rtree: pts/values length mismatch")
	}
	if len(pts) > math.MaxInt32 {
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

	order := make([]int32, n)
	col := make([]float64, n)
	strTile(order, dim, col, func(i int32, axis int) float64 { return pts[i][axis] })

	t.pts = make([]float64, n*dim)
	t.vals = make([]T, n)
	for e, i := range order {
		copy(t.pts[e*dim:], pts[i])
		t.vals[e] = values[i]
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
		strTile(order, dim, col, func(k int32, axis int) float64 {
			box := level[int(k)*2*dim:]
			return (box[axis] + box[dim+axis]) / 2
		})
		parents := nodesFor(count)
		next := emptyBoxes(parents, dim)
		for i, k := range order {
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

// strTile fills ids with 0..len(ids)-1 in Sort-Tile-Recursive order under
// key: sort on the first axis, cut the order into slabs, recurse on the
// next axis inside each slab. A slab is a whole number of nodes, so when
// the caller cuts the final order into consecutive runs of nodeCap no node
// straddles two tiles. col is scratch indexed by id; the sort reads keys
// from it rather than through key, which is called once per id and axis.
// Equal keys order by id, which makes the comparison a total order: the
// result depends on the input alone, not on the sort algorithm, and the
// unstable sort is free to be the fast one.
func strTile(ids []int32, dim int, col []float64, key func(id int32, axis int) float64) {
	for i := range ids {
		ids[i] = int32(i)
	}
	strTileAxis(ids, 0, dim, col, key)
}

func strTileAxis(ids []int32, axis, dim int, col []float64, key func(id int32, axis int) float64) {
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
		strTileAxis(ids[start:min(start+size, len(ids))], axis+1, dim, col, key)
	}
}
