package relation

import (
	"fmt"
	"sync"

	"repro/internal/rtree"
	"repro/internal/vec"
)

// Columns is the read-only storage every shard reads from: tuples
// addressed by storage index, each beside its ordinal in the parent
// relation. Partition builds it on the heap; internal/relfile provides it
// over a memory-mapped file, where Tuple and Vec may return views aliasing
// the mapping — that implementation must keep the mapping valid for as
// long as the Columns value is reachable.
//
// A shard's storage order IS the canonical score-access order — scores
// non-increasing, ties by ascending parent ordinal — so its score stream
// is a cursor, not a sort.
type Columns interface {
	// Len returns the shard's tuple count.
	Len() int
	// Tuple materializes the i-th tuple. ID and Vec may alias backing
	// storage; Attrs may be built per call (nil when the tuple has none).
	Tuple(i int) Tuple
	// Vec returns the i-th feature vector without materializing the rest
	// of the tuple (index builds touch only vectors).
	Vec(i int) vec.Vector
	// Ordinal returns the i-th tuple's ordinal in the parent relation.
	Ordinal(i int) int
}

// heapColumns is the heap-resident Columns: tuple headers in canonical
// score order beside their parent ordinals. Vectors, IDs and attribute
// maps are shared with the relation the tuples came from.
type heapColumns struct {
	tuples []Tuple
	ords   []int
}

func (c *heapColumns) Len() int             { return len(c.tuples) }
func (c *heapColumns) Tuple(i int) Tuple    { return c.tuples[i] }
func (c *heapColumns) Vec(i int) vec.Vector { return c.tuples[i].Vec }
func (c *heapColumns) Ordinal(i int) int    { return c.ords[i] }

// scoreOrdered copies the tuples of r that group names (by parent
// ordinal) into canonical score order.
func scoreOrdered(r *Relation, group []int) *heapColumns {
	ks := make([]sortKey, len(group))
	for j, ord := range group {
		ks[j] = sortKey{key: -r.tuples[ord].Score, ord: ord}
	}
	sortKeys(ks)
	c := &heapColumns{tuples: make([]Tuple, len(ks)), ords: make([]int, len(ks))}
	for j, k := range ks {
		c.tuples[j], c.ords[j] = r.tuples[k.ord], k.ord
	}
	return c
}

// wholeGroup is the group naming all n tuples of a relation in storage
// order.
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

// FileShard describes one shard of a relation assembled from external
// columnar storage: the columns themselves plus the bounding metadata
// computed at build time. The ball is stored, not recomputed, because
// computeBounds sums vectors in the partitioner's group order and
// re-deriving it over the score-ordered columns would drift the float
// bits advertised to coordinators; the rectangle is order-independent
// and may be derived from the columns (ExtendRect).
type FileShard struct {
	Cols   Columns
	Bounds ShardBounds
}

// shard is one piece of a partitioned relation: its storage, the bounds
// it advertises, and its R-tree. rel carries the shard's name, σ_max and
// dimensionality to the streams opened over it; it is the caller's own
// relation when the shard is the whole of it, a metadata stub otherwise.
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
// heap relation never pays it on a query.
type lazyRTree struct {
	once sync.Once
	tree *rtree.Tree[nnRef]
}

// rtree returns the shard's R-tree, bulk-loading it on first use. The
// tree copies each vector once into its own slab, so it never pins a file
// mapping.
func (sh *shard) rtree() *rtree.Tree[nnRef] {
	sh.lazy.once.Do(func() {
		n := sh.cols.Len()
		pts := make([]vec.Vector, n)
		refs := make([]nnRef, n)
		for i := range pts {
			pts[i] = sh.cols.Vec(i)
			refs[i] = nnRef{idx: int32(i), ord: uint32(sh.cols.Ordinal(i))}
		}
		sh.lazy.tree = rtree.BulkLoad(sh.rel.dim, pts, refs)
	})
	return sh.lazy.tree
}

// openShards opens one stream per shard into dst for one access
// configuration. It is the only place an access path is chosen, for
// partitioned and plain relations alike (a plain relation is a one-shard
// run, and an index built once over a whole relation is a one-shard
// Sharded): the score order is a cursor over the columns; a distance
// order is an incremental R-tree traversal when the shards own trees
// (useRTree: true from Sharded, false from a plain relation, whose tree
// would be built and thrown away per call), and a full sort otherwise.
func openShards(dst []Source, shards []shard, kind AccessKind, q vec.Vector, useRTree bool) error {
	if kind == ScoreAccess {
		for i := range shards {
			dst[i] = &colScoreSource{rel: shards[i].rel, cols: shards[i].cols}
		}
		return nil
	}
	if rel := shards[0].rel; q.Dim() != rel.dim {
		return fmt.Errorf("relation %q: query dim %d, want %d", rel.Name, q.Dim(), rel.dim)
	}
	if useRTree {
		for i := range shards {
			sh := &shards[i]
			dst[i] = &rtreeSource{rel: sh.rel, cols: sh.cols, it: sh.rtree().NearestNeighbors(q)}
		}
		return nil
	}
	sortedSources(dst, shards, q)
	return nil
}

// openOne is openShards over a one-shard run.
func openOne(one []shard, kind AccessKind, q vec.Vector, useRTree bool) (Source, error) {
	var dst [1]Source
	err := openShards(dst[:], one, kind, q, useRTree)
	return dst[0], err
}

// sortedSources builds the sorted distance stream of every shard in one
// pass over shared slabs: one tuple/key/ordinal column set for all
// shards, one reused sort scratch, and one sliceSource backing array,
// instead of five allocations a shard. The streams are what per-shard
// construction would emit — only the placement of their backing memory
// differs. Per query O(n log n); the R-tree route is the scalable one.
func sortedSources(dst []Source, shards []shard, q vec.Vector) {
	total, maxLen := 0, 0
	for i := range shards {
		n := shards[i].cols.Len()
		total += n
		maxLen = max(maxLen, n)
	}
	states := make([]sliceSource, len(shards))
	ordSlab := make([]Tuple, total)
	keySlab := make([]float64, total)
	ordsSlab := make([]int, total)
	ks := make([]sortKey, maxLen)
	off := 0
	for i := range shards {
		sh := &shards[i]
		kss := ks[:sh.cols.Len()]
		for j := range kss {
			kss[j] = sortKey{key: sh.cols.Vec(j).Dist(q), ord: sh.cols.Ordinal(j), idx: j}
		}
		sortKeys(kss)
		end := off + len(kss)
		st := &states[i]
		*st = sliceSource{rel: sh.rel, ord: ordSlab[off:end:end], keys: keySlab[off:end:end], ords: ordsSlab[off:end:end]}
		for j, k := range kss {
			st.ord[j], st.keys[j], st.ords[j] = sh.cols.Tuple(k.idx), k.key, k.ord
		}
		dst[i] = st
		off = end
	}
}

// autoShardTarget is the tuples-per-shard the admission heuristic aims
// for: small enough that a shard's R-tree builds in milliseconds (measured
// on a 2-CPU container: ≈ 3 ms of bulk load for a 7 500-tuple dim-8
// shard, and on the proxserve benchmark 2.2–3.8 ms for the first distance
// read of such a relfile shard, page faults included) and bounding
// metadata stays selective, large enough that the k-way merge over shard
// heads stays shallow.
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
// order (the loader validated it), bounds come stored from the file, and
// R-trees build lazily on first distance access. parent is typically a
// metadata-only stub (NewStub) — the engine reconstructs emitted tuples
// from its own pulled prefixes, never from the parent's tuple storage,
// which is what lets a loaded relation's tuples stay on disk.
func AssembleSharded(parent *Relation, shards []FileShard, strategy PartitionStrategy) (*Sharded, error) {
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
	for i, fs := range shards {
		if fs.Cols == nil {
			return nil, fmt.Errorf("relation %q: shard %d has no columns", parent.Name, i)
		}
		n := fs.Cols.Len()
		if n < 1 {
			return nil, fmt.Errorf("relation %q: shard %d is empty", parent.Name, i)
		}
		total += n
	}
	if total != parent.Len() {
		return nil, fmt.Errorf("relation %q: shards hold %d tuples, parent advertises %d", parent.Name, total, parent.Len())
	}
	s := &Sharded{parent: parent, strategy: strategy}
	s.shards = make([]shard, len(shards))
	for i, fs := range shards {
		s.shards[i] = shard{rel: shardRel(parent, i, len(shards), fs.Cols.Len()), cols: fs.Cols, bounds: fs.Bounds}
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
