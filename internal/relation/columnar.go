package relation

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/rtree"
	"repro/internal/vec"
)

// Columns is the read-only storage every shard reads from: tuples
// addressed by storage index, each beside its ordinal in the parent
// relation. Partition builds it on the heap, every vector in one slab at
// dim·i, so Tuple and Vec return views of that slab; internal/relfile
// provides it over a memory-mapped file, whose Vec and VecSlab are views
// of the mapping, valid while the Columns value is reachable, and whose
// Tuple copies: a tuple outlives the columns it came from, so only
// storage the garbage collector owns may back it.
//
// A shard's storage order IS the canonical score-access order — scores
// non-increasing, ties by ascending parent ordinal — so its score stream
// is a cursor, not a sort, that reads the columns front to back. A
// distance stream over a shard's R-tree reads them only for a tuple's ID,
// score and attributes (Head): its vectors are views of the tree's leaf
// slab. A shard that scans (shard.scans: from dimension 8, up to
// autoShardTarget tuples) keys every vector (VecSlab) and emits the
// columns' Tuples.
type Columns interface {
	// Len returns the shard's tuple count.
	Len() int
	// Tuple materializes the i-th tuple. Its ID and Vec are read-only and
	// may be shared with the columns, but only where the garbage
	// collector owns the memory; Attrs may be built per call (nil when
	// the tuple has none).
	Tuple(i int) Tuple
	// Head is Tuple without the vector: its Vec is nil.
	Head(i int) Tuple
	// Vec returns the i-th feature vector without materializing the rest
	// of the tuple (index builds touch only vectors). It may be a view
	// that is valid only while the columns are reachable.
	Vec(i int) vec.Vector
	// Ordinal returns the i-th tuple's ordinal in the parent relation.
	Ordinal(i int) int
	// VecSlab returns every vector in storage order as one slab, vector i
	// at dim·i, read-only and, like Vec, valid only while the columns are
	// reachable; or nil when the vectors are not stored in one (a plain
	// relation's). A scan reads it in one pass.
	VecSlab() []float64
}

// heapColumns is the heap-resident Columns, laid out in canonical score
// order so that a score stream reads it front to back: one head per
// tuple, every vector at offset dim·i of one slab, and the parent
// ordinals. IDs and attribute maps are shared with the relation the
// tuples came from; the vectors are copied into the slab. A head is 24
// bytes, a vector 8·dim, an ordinal 4: at dim 4, 4 bytes a tuple less
// than a Tuple and an int ordinal.
type heapColumns struct {
	heads []tupleHead
	attrs []map[string]string // nil when no tuple of the shard has any
	vecs  []float64
	ords  []int32
	dim   int
}

// tupleHead is what a Tuple holds besides its vector and attributes.
type tupleHead struct {
	ID    string
	Score float64
}

func (c *heapColumns) Len() int { return len(c.heads) }

func (c *heapColumns) Tuple(i int) Tuple {
	t := c.Head(i)
	t.Vec = c.Vec(i)
	return t
}

func (c *heapColumns) Head(i int) Tuple {
	h := &c.heads[i]
	t := Tuple{ID: h.ID, Score: h.Score}
	if c.attrs != nil {
		t.Attrs = c.attrs[i]
	}
	return t
}

// Vec returns a view of the slab, capacity clipped so an append copies.
func (c *heapColumns) Vec(i int) vec.Vector {
	return vec.Vector(c.vecs[i*c.dim : (i+1)*c.dim : (i+1)*c.dim])
}

func (c *heapColumns) Ordinal(i int) int { return int(c.ords[i]) }

func (c *heapColumns) VecSlab() []float64 { return c.vecs[:len(c.vecs):len(c.vecs)] }

// scoreOrdered copies the tuples of r that group names (by parent
// ordinal) into canonical score order.
func scoreOrdered(r *Relation, group []int) *heapColumns {
	ks := make([]sortKey, len(group))
	for j, ord := range group {
		ks[j] = sortKey{key: -r.tuples[ord].Score, ord: ord}
	}
	sortKeys(ks)
	c := &heapColumns{
		heads: make([]tupleHead, len(ks)),
		vecs:  make([]float64, len(ks)*r.dim),
		ords:  make([]int32, len(ks)),
		dim:   r.dim,
	}
	for j, k := range ks {
		t := &r.tuples[k.ord]
		c.heads[j] = tupleHead{ID: t.ID, Score: t.Score}
		copy(c.vecs[j*r.dim:], t.Vec)
		c.ords[j] = int32(k.ord)
		if t.Attrs != nil {
			if c.attrs == nil {
				c.attrs = make([]map[string]string, len(ks))
			}
			c.attrs[j] = t.Attrs
		}
	}
	return c
}

// wholeGroup is the group naming all n tuples of a relation in storage
// order, and the set naming all n shards of a Sharded: 0, 1, …, n−1.
func wholeGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// storageOrder views a whole relation as Columns without copying it:
// storage order, identity ordinals. Not score-ordered, so only distance
// access — which orders by its own key — reads a relation through it.
type storageOrder Relation

func (c *storageOrder) Len() int             { return len(c.tuples) }
func (c *storageOrder) Tuple(i int) Tuple    { return c.tuples[i] }
func (c *storageOrder) Vec(i int) vec.Vector { return c.tuples[i].Vec }
func (c *storageOrder) Ordinal(i int) int    { return i }
func (c *storageOrder) VecSlab() []float64   { return nil }

func (c *storageOrder) Head(i int) Tuple {
	t := c.tuples[i]
	t.Vec = nil
	return t
}

// shard is one piece of a partitioned relation: its storage, the bounds
// it advertises, and, below dimension 8, its R-tree. rel carries the
// shard's name, σ_max and dimensionality to the streams opened over it;
// it is the caller's own relation when the shard is the whole of it, a
// metadata stub otherwise.
type shard struct {
	rel    *Relation
	cols   Columns
	bounds ShardBounds
	lazy   lazyRTree
}

// lazyRTree builds a shard's R-tree on first distance access: a mapped
// relation serving only score access never pays for the index, which is
// the one part of a loaded shard that lives on the heap — a copy of every
// vector in leaf order (8·dim bytes a tuple) plus about a sixteenth of
// that again in inner boxes. sync.Once makes the build safe under
// concurrent first queries. Partition forces the build, so a registered
// heap relation never pays it on a query. A shard that scans (from
// dimension 8, up to autoShardTarget tuples) never builds one.
type lazyRTree struct {
	once sync.Once
	tree *rtree.Tree[int32]
}

// rtree returns the shard's R-tree, bulk-loading it on first use. The
// tree copies each vector once into its own slab, so its points are heap
// memory even on a mapped shard; a point's payload is its storage index,
// four bytes.
func (sh *shard) rtree() *rtree.Tree[int32] {
	sh.lazy.once.Do(func() {
		n := sh.cols.Len()
		pts := make([]vec.Vector, n)
		idx := make([]int32, n)
		for i := range pts {
			pts[i] = sh.cols.Vec(i)
			idx[i] = int32(i)
		}
		sh.lazy.tree = rtree.BulkLoad(sh.rel.dim, pts, idx)
		runtime.KeepAlive(sh.cols) // BulkLoad read its views
	})
	return sh.lazy.tree
}

// open opens the shard's stream for one access configuration. It is the
// only place an access path is chosen, for partitioned and plain
// relations alike (a plain relation is a one-shard run, and an index
// built once over a whole relation is a one-shard Sharded): the score
// order is a cursor over the columns; a distance order is an incremental
// R-tree traversal when the shard owns a tree (useRTree: true from
// Sharded, false from a plain relation, whose tree would be built and
// thrown away per call) and the shard does not scan (shard.scans), and a
// scan of the columns otherwise.
func (sh *shard) open(kind AccessKind, q vec.Vector, useRTree bool) (KeyedSource, error) {
	if kind == ScoreAccess {
		return &colScoreSource{rel: sh.rel, cols: sh.cols}, nil
	}
	if q.Dim() != sh.rel.dim {
		return nil, fmt.Errorf("relation %q: query dim %d, want %d", sh.rel.Name, q.Dim(), sh.rel.dim)
	}
	if useRTree && !sh.scans() {
		tree := sh.rtree()
		return &rtreeSource{rel: sh.rel, cols: sh.cols, tree: tree, it: tree.NearestNeighbors(q)}, nil
	}
	return newScanSource(sh.rel, sh.cols, q), nil
}

// autoShardTarget is the tuples-per-shard the admission heuristic aims
// for: small enough that a shard's R-tree builds in milliseconds (measured
// on a 2-CPU container: ≈ 2 ms of bulk load for a 6 667-tuple dim-4
// shard) and a scan from dimension 8 keys a shard in well under one (60–
// 90 µs to the first tuple of a 7 500-tuple dim-8 shard, where the tree
// it no longer builds took ≈ 3.3 ms), and bounding metadata stays
// selective; large enough that the k-way merge over shard heads stays
// shallow. It is also the largest shard that scans (shard.scans): at
// 30 000 dim-8 tuples the scan no longer beats the tree, and at 100 000
// the tree is 2–6× faster.
const autoShardTarget = 8192

// AutoShardCount picks a shard count from a relation's size: one shard
// per autoShardTarget tuples (rounded up), clamped to [1, 64]. Catalog
// admission and proxgen share this heuristic so a file built offline
// gets the same layout a live registration would.
func AutoShardCount(tuples int) int {
	if tuples <= autoShardTarget {
		return 1
	}
	s := (tuples + autoShardTarget - 1) / autoShardTarget
	if s > 64 {
		return 64
	}
	return s
}

// AssembleSharded builds a Sharded over prebuilt shards in external
// columnar storage. Unlike Partition it copies no tuples and sorts
// nothing: each shard's storage order is already the canonical score
// order (the loader validated it), bounds derive from the columns as
// Partition's do, and the R-trees of shards that do not scan build lazily
// on first distance access.
// parent is typically a metadata-only stub (NewStub) — the engine
// reconstructs emitted tuples from its own pulled prefixes, never from
// the parent's tuple storage, which is what lets a loaded relation's
// tuples stay on disk.
func AssembleSharded(parent *Relation, shards []Columns) (*Sharded, error) {
	if parent == nil {
		return nil, fmt.Errorf("relation: cannot assemble a nil relation")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("relation %q: no shards to assemble", parent.Name)
	}
	if len(shards) > maxShards {
		return nil, fmt.Errorf("relation %q: shard count %d exceeds the maximum %d", parent.Name, len(shards), maxShards)
	}
	total := 0
	for i, cols := range shards {
		if cols == nil {
			return nil, fmt.Errorf("relation %q: shard %d has no columns", parent.Name, i)
		}
		n := cols.Len()
		if n < 1 {
			return nil, fmt.Errorf("relation %q: shard %d is empty", parent.Name, i)
		}
		total += n
	}
	if total != parent.Len() {
		return nil, fmt.Errorf("relation %q: shards hold %d tuples, parent advertises %d", parent.Name, total, parent.Len())
	}
	s := &Sharded{parent: parent, shards: make([]shard, len(shards)), all: wholeGroup(len(shards))}
	for i, cols := range shards {
		s.shards[i] = shard{rel: shardRel(parent, i, len(shards), cols.Len()), cols: cols, bounds: boundsOf(cols)}
	}
	return s, nil
}

// shardRel is the relation the streams of shard i of parent report: parent
// itself for a sole shard, otherwise a metadata stub carrying the shard's
// name, σ_max, dimensionality and tuple count.
func shardRel(parent *Relation, i, shards, tuples int) *Relation {
	if shards == 1 {
		return parent
	}
	return &Relation{Name: fmt.Sprintf("%s#%d", parent.Name, i), MaxScore: parent.MaxScore, dim: parent.dim, stubLen: tuples}
}

// colScoreSource streams a shard in score order straight off its
// columns: storage order is the canonical (−score, ordinal) order, so no
// sort, no materialized tuple slice, and no per-tuple heap beyond what
// the caller retains. The engine keeps only the pulled prefix, so a
// score-access query over an arbitrarily large mapped shard touches heap
// proportional to its depth, not the shard size.
type colScoreSource struct {
	rel  *Relation
	cols Columns
	pos  int
}

func (s *colScoreSource) Next() (Tuple, error) {
	t, _, _, err := s.NextKeyed()
	return t, err
}

// NextKeyed implements KeyedSource. The merge key is −score; float
// negation is exact, so a k-way merge on it is a merge on the scores'
// own bits.
func (s *colScoreSource) NextKeyed() (Tuple, float64, int, error) {
	if s.pos >= s.cols.Len() {
		return Tuple{}, 0, 0, ErrExhausted
	}
	i := s.pos
	s.pos++
	t := s.cols.Tuple(i)
	return t, -t.Score, s.cols.Ordinal(i), nil
}

func (s *colScoreSource) Kind() AccessKind    { return ScoreAccess }
func (s *colScoreSource) Relation() *Relation { return s.rel }
