package relation

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/rtree"
	"repro/internal/vec"
)

// maxShards bounds requested shard counts; beyond this the per-shard
// bookkeeping dwarfs any conceivable win.
const maxShards = 1 << 16

// ShardBounds is one shard's bounding metadata: the minimum bounding
// rectangle of its vectors, its true maximum score and its size, all a
// function of its columns (boundsOf). From it a coordinator derives,
// without touching the shard's tuples, a lower bound on any sort key the
// shard can produce (KeyLowerBound) — the basis for distance-aware shard
// pruning (the partition-pruning idea of the MapReduce kNN-join
// literature applied to rank-join sources).
type ShardBounds struct {
	// Min and Max are the corners of the shard's minimum bounding
	// rectangle.
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
	// MaxScore is the largest tuple score present in the shard (its
	// effective σ_max, at most the parent's declared bound).
	MaxScore float64 `json:"maxScore"`
	// Tuples is the shard's tuple count.
	Tuples int `json:"tuples"`
}

// Dist2LowerBound returns a sound lower bound on the squared Euclidean
// distance from q to any tuple in the shard, the key its distance stream
// starts at: the rectangle's squared distance, which rounds monotonically
// in Vec.Dist2's order (rtree.Rect.MinDist2) and so needs no slack. Below
// the normal range, where rounding is absolute, the bound is 0.
func (b ShardBounds) Dist2LowerBound(q vec.Vector) float64 {
	d2 := rtree.Rect{Min: b.Min, Max: b.Max}.MinDist2(q)
	if !(d2 >= 0x1p-1022) {
		return 0 // subnormal, or NaN from a NaN corner
	}
	return d2
}

// KeyLowerBound returns the lower bound on the merge key of the shard's
// stream under one access: −MaxScore, the exact first key of a score
// stream, or Dist2LowerBound(q) under distance access.
func (b ShardBounds) KeyLowerBound(kind AccessKind, q vec.Vector) float64 {
	if kind == ScoreAccess {
		return -b.MaxScore
	}
	return b.Dist2LowerBound(q)
}

// boundsOf derives the bounds of the shard stored in cols, which hold at
// least one tuple in score order. Min and max are exact and commutative,
// so the rectangle has the same bits whatever order the vectors are
// stored in: a relfile re-derives the partitioner's bounds.
func boundsOf(cols Columns) ShardBounds {
	n := cols.Len()
	b := ShardBounds{MaxScore: cols.Head(0).Score, Tuples: n}
	b.Min, b.Max = EmptyRect(cols.Vec(0).Dim())
	for i := 0; i < n; i++ {
		ExtendRect(b.Min, b.Max, cols.Vec(i))
	}
	runtime.KeepAlive(cols) // the last ExtendRect read a view
	return b
}

// EmptyRect returns the corners of the rectangle containing no point of
// dimension dim: the start of an ExtendRect fold.
func EmptyRect(dim int) (lo, hi []float64) {
	box := make([]float64, 2*dim)
	lo, hi = box[:dim:dim], box[dim:]
	for d := range lo {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	return lo, hi
}

// ExtendRect grows the rectangle lo..hi to contain v. min and max are
// exact and commutative, so the corners reached do not depend on the
// order vectors are folded in.
func ExtendRect(lo, hi []float64, v vec.Vector) {
	for d, x := range v {
		lo[d], hi[d] = min(lo[d], x), max(hi[d], x)
	}
}

// Sharded is a relation partitioned into shards, each one Columns in
// score order with its own R-tree (none for a shard that scans:
// shard.scans), shared read-only across queries.
// Query-time streams are per-shard sources k-way-merged back into one
// canonical order (see MergedSource), so a sharded relation answers
// byte-identically to its unsharded form while bounding per-shard index
// memory and enabling parallel builds and distribution across shard
// servers.
type Sharded struct {
	parent *Relation
	shards []shard
	all    []int // every shard index, ascending: the set openSource opens
}

// Partition splits r into at most n size-balanced axis-aligned boxes by
// recursive median cut (gridGroups, the spatial partitioning of MapReduce
// kNN joins) and builds each shard's score-ordered columns, bounds and,
// below dimension 8, R-tree in parallel. Each shard's rectangle covers one
// box, so a distance stream drains mostly the shards near its query and a
// merge or coordinator leaves the others unopened. Fewer than n shards
// are returned when some would be empty (n exceeding the tuple count).
// A sole shard serves r itself: ShardRelation(0) is r, untouched.
func Partition(r *Relation, n int) (*Sharded, error) {
	if r == nil {
		return nil, fmt.Errorf("relation: cannot partition a nil relation")
	}
	if r.IsStub() {
		return nil, fmt.Errorf("relation %q: cannot partition a remote stub", r.Name)
	}
	if n < 1 {
		return nil, fmt.Errorf("relation %q: shard count %d must be at least 1", r.Name, n)
	}
	if n > maxShards {
		return nil, fmt.Errorf("relation %q: shard count %d exceeds the maximum %d", r.Name, n, maxShards)
	}
	var groups [][]int
	if n > 1 {
		groups = gridGroups(r, n)
	}
	// Drop empty shards; a merge over empty streams is pure overhead.
	kept := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			kept = append(kept, g)
		}
	}
	groups = kept
	if len(groups) <= 1 {
		groups = [][]int{wholeGroup(len(r.tuples))}
	}

	s := &Sharded{parent: r, shards: make([]shard, len(groups)), all: wholeGroup(len(groups))}
	// Sorting and index construction dominate partitioning cost; build
	// every shard concurrently.
	var wg sync.WaitGroup
	for i, g := range groups {
		sh := &s.shards[i]
		sh.rel = shardRel(r, i, len(groups), len(g))
		wg.Add(1)
		go func(g []int) {
			defer wg.Done()
			sh.cols = scoreOrdered(r, g)
			sh.bounds = boundsOf(sh.cols)
			if !sh.scans() {
				sh.rtree()
			}
		}(g)
	}
	wg.Wait()
	return s, nil
}

// gridGroups cuts r into n size-balanced axis-aligned boxes by recursive
// median cut: a run of tuples due n boxes is split across its axis of
// widest extent, the len·⌊n/2⌋/n smallest under (coordinate, ordinal)
// going left with ⌊n/2⌋ boxes and the rest right with the others. That
// order is total, so the boxes are a function of the tuples alone, and
// every box lists its ordinals ascending. Boxes, unlike runs of a cell
// ordering, have rectangles that do not overlap beyond shared faces —
// what lets ShardBounds' rectangle prune.
func gridGroups(r *Relation, n int) [][]int {
	items := make([]cutItem, len(r.tuples))
	for i := range items {
		items[i].ord = i
	}
	return cutBoxes(r, items, make([]int, len(items)), n, make([][]int, 0, n))
}

// cutItem is one tuple in a median cut: its coordinate on the axis being
// cut and its ordinal.
type cutItem struct {
	key float64
	ord int
}

func (a cutItem) before(b cutItem) bool {
	return a.key < b.key || (a.key == b.key && a.ord < b.ord)
}

// cutBoxes appends to out the n boxes of items; ords is the slab, as long
// as items, the boxes are carved from.
func cutBoxes(r *Relation, items []cutItem, ords []int, n int, out [][]int) [][]int {
	if n == 1 {
		for i, it := range items {
			ords[i] = it.ord
		}
		slices.Sort(ords)
		return append(out, ords)
	}
	lo, hi := EmptyRect(r.dim)
	for _, it := range items {
		ExtendRect(lo, hi, r.tuples[it.ord].Vec)
	}
	axis := 0
	for d := range lo {
		if hi[d]-lo[d] > hi[axis]-lo[axis] {
			axis = d
		}
	}
	for i := range items {
		items[i].key = r.tuples[items[i].ord].Vec[axis]
	}
	k := len(items) * (n / 2) / n
	selectSmallest(items, k)
	out = cutBoxes(r, items[:k], ords[:k], n/2, out)
	return cutBoxes(r, items[k:], ords[k:], n-n/2, out)
}

// selectSmallest reorders items so that items[:k] are its k smallest: a
// quickselect (Hoare's FIND), linear in expectation where sorting every
// level of the cut was measured at half again the cost of Partition.
func selectSmallest(items []cutItem, k int) {
	l, r := 0, len(items)-1
	for l < r {
		pivot := items[k]
		i, j := l, r
		for i <= j {
			for items[i].before(pivot) {
				i++
			}
			for pivot.before(items[j]) {
				j--
			}
			if i <= j {
				items[i], items[j] = items[j], items[i]
				i++
				j--
			}
		}
		if j < k {
			l = i
		}
		if k < i {
			r = j
		}
	}
}

// Relation returns the parent relation.
func (s *Sharded) Relation() *Relation { return s.parent }

// InputRelation implements Input.
func (s *Sharded) InputRelation() *Relation { return s.parent }

// NumShards returns the number of non-empty shards.
func (s *Sharded) NumShards() int { return len(s.shards) }

// FileBacked reports whether the shards read from external columnar
// storage (AssembleSharded) rather than the heap columns Partition builds.
func (s *Sharded) FileBacked() bool {
	_, heap := s.shards[0].cols.(*heapColumns)
	return !heap
}

// ShardColumns returns shard i's storage: its tuples in canonical score
// order beside their parent-relation ordinals. The file writer dumps
// exactly this.
func (s *Sharded) ShardColumns(i int) Columns { return s.shards[i].cols }

// ShardSizes returns the tuple count of each shard.
func (s *Sharded) ShardSizes() []int {
	out := make([]int, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].cols.Len()
	}
	return out
}

// ShardRelation returns shard i's relation: the partitioned relation
// itself when it is the sole shard, otherwise a metadata stub (name,
// σ_max, dimensionality, tuple count) — the tuples are in ShardColumns.
func (s *Sharded) ShardRelation(i int) *Relation { return s.shards[i].rel }

// ShardBounds returns shard i's bounding metadata.
func (s *Sharded) ShardBounds(i int) ShardBounds { return s.shards[i].bounds }

// ShardSource opens the ordered stream of shard i for one access
// configuration. The streams of all shards under one configuration merge
// back into the canonical relation order via Merge. useRTree false scans
// the shard instead of traversing its R-tree — same stream, and no caller
// outside the tests asks for it (OpenSource never does); a shard that
// scans (shard.scans) always streams the scan. The distance is
// always Euclidean: metric is ignored, and stays in the signature only
// because the benchmark module (bench/) passes it.
func (s *Sharded) ShardSource(i int, kind AccessKind, q vec.Vector, _ vec.Metric, useRTree bool) (Source, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("relation %q: shard %d out of range [0,%d)", s.parent.Name, i, len(s.shards))
	}
	return s.shards[i].open(kind, q, useRTree)
}

// OpenShardSet opens the canonical stream of a set of shards, named by
// ascending index, for one access configuration: what the merge of the
// whole relation emits, restricted to the tuples of those shards. One
// shard is that shard's stream, exactly as ShardSource opens it. Several
// are a MergedSource whose every input is latent at its shard's key
// bound (ShardBounds.KeyLowerBound) and opened on its first read, so a
// shard whose bound the stream never reaches is never traversed. Every
// stream over more than one shard is one: a local relation's over all of
// its shards, and a shard server's over the set a remote pull names.
func (s *Sharded) OpenShardSet(shards []int, kind AccessKind, q vec.Vector) (KeyedSource, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("relation %q: an empty shard set", s.parent.Name)
	}
	for j, i := range shards {
		if i < 0 || i >= len(s.shards) {
			return nil, fmt.Errorf("relation %q: shard %d out of range [0,%d)", s.parent.Name, i, len(s.shards))
		}
		if j > 0 && i <= shards[j-1] {
			return nil, fmt.Errorf("relation %q: shard set %v is not ascending", s.parent.Name, shards)
		}
	}
	if kind == DistanceAccess && q.Dim() != s.parent.dim {
		return nil, fmt.Errorf("relation %q: query dim %d, want %d", s.parent.Name, q.Dim(), s.parent.dim)
	}
	if len(shards) == 1 {
		return s.shards[shards[0]].open(kind, q, true)
	}
	latent := make([]latentShard, len(shards))
	inputs := make([]KeyedSource, len(shards))
	for j, i := range shards {
		sh := &s.shards[i]
		latent[j] = latentShard{sh: sh, kind: kind, q: q, bound: sh.bounds.KeyLowerBound(kind, q)}
		inputs[j] = &latent[j]
	}
	return newMergedSource(s.parent, kind, inputs), nil
}

// latentShard is one input of a shard-set stream: a BoundedSource at its
// shard's key bound that opens the shard's stream on its first read. The
// merge then reads that stream directly (see MergedSource.materializeRoot).
type latentShard struct {
	sh    *shard
	kind  AccessKind
	q     vec.Vector
	bound float64
	src   KeyedSource // nil until the first read
}

// NextKeyed implements KeyedSource.
func (l *latentShard) NextKeyed() (Tuple, float64, int, error) {
	if l.src == nil {
		src, err := l.sh.open(l.kind, l.q, true)
		if err != nil {
			return Tuple{}, 0, 0, err
		}
		l.src = src
	}
	return l.src.NextKeyed()
}

// Next implements Source.
func (l *latentShard) Next() (Tuple, error) {
	t, _, _, err := l.NextKeyed()
	return t, err
}

// KeyLowerBound implements BoundedSource.
func (l *latentShard) KeyLowerBound() float64 { return l.bound }

// Close implements Closer: it closes the shard's stream if one was opened.
func (l *latentShard) Close() {
	if c, ok := l.src.(Closer); ok {
		c.Close()
	}
}

func (l *latentShard) Kind() AccessKind    { return l.kind }
func (l *latentShard) Relation() *Relation { return l.sh.rel }

// Merge k-way-merges one stream per shard (as produced by ShardSource,
// in shard order) into a single stream in the canonical relation order.
// A single-shard set passes its stream through untouched. Only the
// benchmark module (bench/) and tests call it; OpenSource merges through
// OpenShardSet.
func (s *Sharded) Merge(sources []Source) (Source, error) {
	if len(sources) != len(s.shards) {
		return nil, fmt.Errorf("relation %q: merging %d sources across %d shards", s.parent.Name, len(sources), len(s.shards))
	}
	if len(sources) == 1 {
		return sources[0], nil
	}
	ks := make([]KeyedSource, len(sources))
	for i, src := range sources {
		k, ok := src.(KeyedSource)
		if !ok {
			return nil, fmt.Errorf("relation %q: source %d (%T) is not a shard stream", s.parent.Name, i, src)
		}
		ks[i] = k
	}
	merged, err := NewMergedSource(s.parent, sources[0].Kind(), ks)
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// openSource implements Input: the shard set of every shard, each
// streaming distance order from its R-tree, or from a scan of its
// columns when it scans (shard.scans).
func (s *Sharded) openSource(kind AccessKind, q vec.Vector) (Source, error) {
	return s.OpenShardSet(s.all, kind, q)
}
