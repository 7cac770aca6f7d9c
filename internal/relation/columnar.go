package relation

import (
	"fmt"
	"sync"

	"repro/internal/vec"
)

// Columns is the read-only columnar storage contract a file-backed shard
// provides (see internal/relfile): tuples addressed by storage index,
// where storage order IS the canonical score-access order — scores
// non-increasing, ties by ascending parent ordinal. Tuple and Vec may
// return views aliasing a memory-mapped file; the implementation must
// keep the mapping valid for as long as the Columns value is reachable.
type Columns interface {
	// Len returns the shard's tuple count.
	Len() int
	// Tuple materializes the i-th tuple. ID and Vec may alias backing
	// storage; Attrs is built per call (nil when the tuple has none).
	Tuple(i int) Tuple
	// Vec returns the i-th feature vector without materializing the rest
	// of the tuple (index builds touch only vectors).
	Vec(i int) vec.Vector
	// Ordinal returns the i-th tuple's ordinal in the parent relation.
	Ordinal(i int) int
}

// FileShard describes one shard of a relation assembled from external
// columnar storage: the columns themselves plus the bounding metadata
// computed at build time. Bounds are stored, not recomputed, because
// computeBounds sums vectors in the builder's storage order and
// re-deriving them over a different permutation would drift the float
// bits advertised to coordinators.
type FileShard struct {
	Cols   Columns
	Bounds ShardBounds
}

// lazyRTree builds a shard's R-tree on first distance access instead of
// at assembly: a file-backed relation serving only score access never
// pays for the index, which is the one part of a loaded shard that lives
// on the heap — a copy of every vector in leaf order (8·dim bytes a
// tuple) plus about a sixteenth of that again in inner boxes. sync.Once
// makes the build safe under concurrent first queries; the resulting tree
// is the same bulk load Partition performs eagerly, so emissions are
// identical.
type lazyRTree struct {
	once sync.Once
	ix   *RTreeIndex
}

func (l *lazyRTree) index(sh *shard) *RTreeIndex {
	l.once.Do(func() {
		l.ix = newRTreeIndex(sh.rel, sh.cols.Len(), sh.cols.Vec)
	})
	return l.ix
}

// autoShardTarget is the tuples-per-shard the admission heuristic aims
// for: small enough that a shard's R-tree builds in milliseconds (measured
// on the proxserve benchmark: ≈ 5 ms of bulk load for a 7 500-tuple dim-8
// shard, 7–9 ms for the first distance read of a relfile shard, page
// faults included) and bounding metadata stays selective, large enough
// that the k-way merge over shard heads stays shallow.
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

// AssembleSharded builds a Sharded over prebuilt file-backed shards.
// Unlike Partition it copies no tuples and sorts nothing: each shard's
// storage order is already the canonical score order (the loader
// validated it), bounds come stored from the file, and R-trees build
// lazily on first distance access. parent is typically a metadata-only
// stub (NewStub) — the engine reconstructs emitted tuples from its own
// pulled prefixes, never from the parent's tuple storage, which is what
// lets a loaded relation's tuples stay on disk.
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
		rel := parent
		if len(shards) > 1 {
			sub, err := NewStub(fmt.Sprintf("%s#%d", parent.Name, i), parent.MaxScore, parent.dim, fs.Cols.Len())
			if err != nil {
				return nil, err
			}
			rel = sub
		}
		s.shards[i] = shard{rel: rel, cols: fs.Cols, bounds: fs.Bounds, lazy: &lazyRTree{}}
	}
	return s, nil
}

// colScoreSource streams a file-backed shard in score order straight off
// its columns: storage order is the canonical (−score, ordinal) order,
// so no sort, no materialized tuple slice, and no per-tuple heap beyond
// what the caller retains. The engine keeps only the pulled prefix, so a
// score-access query over an arbitrarily large shard touches heap
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

// NextKeyed implements KeyedSource. The merge key is −score, exactly
// what newScoreSource computes: float negation is exact, so merged
// emissions are bit-identical to the materialized index's.
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

// newColDistanceSource is the sorted (non-R-tree) distance stream over a
// file-backed shard: materialize the keyed view from the columns, sort
// by (distance, ordinal), serve. Per-query O(n) like the in-memory
// sorted path it mirrors; the R-tree route is the scalable one.
func newColDistanceSource(rel *Relation, cols Columns, q vec.Vector, metric vec.Metric) (*sliceSource, error) {
	if q.Dim() != rel.dim {
		return nil, fmt.Errorf("relation %q: query dim %d, want %d", rel.Name, q.Dim(), rel.dim)
	}
	if metric == nil {
		metric = vec.Euclidean{}
	}
	n := cols.Len()
	ks := make([]keyedTuple, n)
	for i := 0; i < n; i++ {
		t := cols.Tuple(i)
		ks[i] = keyedTuple{t: t, key: metric.Distance(t.Vec, q), ord: cols.Ordinal(i)}
	}
	sortKeyed(ks)
	ord := make([]Tuple, n)
	keys := make([]float64, n)
	ords := make([]int, n)
	unpackKeyed(ks, ord, keys, ords)
	return &sliceSource{rel: rel, kind: DistanceAccess, ord: ord, keys: keys, ords: ords}, nil
}

// colSource opens one access stream over a file-backed shard.
func (sh *shard) colSource(kind AccessKind, q vec.Vector, metric vec.Metric, useRTree bool) (Source, error) {
	switch {
	case kind == ScoreAccess:
		return &colScoreSource{rel: sh.rel, cols: sh.cols}, nil
	case useRTree:
		if q.Dim() != sh.rel.dim {
			return nil, fmt.Errorf("relation %q: query dim %d, want %d", sh.rel.Name, q.Dim(), sh.rel.dim)
		}
		return &rtreeSource{rel: sh.rel, cols: sh.cols, it: sh.lazy.index(sh).tree.NearestNeighbors(q)}, nil
	default:
		return newColDistanceSource(sh.rel, sh.cols, q, metric)
	}
}
