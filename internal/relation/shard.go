package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/rtree"
	"repro/internal/vec"
)

// PartitionStrategy selects how Partition assigns tuples to shards.
type PartitionStrategy int

const (
	// HashPartition spreads tuples across shards by a hash of their ID:
	// size-balanced in expectation, oblivious to geometry. The right
	// default for score access and mixed workloads.
	HashPartition PartitionStrategy = iota
	// GridPartition packs spatially close tuples into the same shard:
	// size-balanced axis-aligned boxes by recursive median cut (the
	// spatial-partitioning idea of MapReduce kNN joins). Per-shard R-trees
	// stay compact, a distance query drains mostly one shard's stream, and
	// a coordinator prunes the boxes its query is far from.
	GridPartition
)

// String implements fmt.Stringer.
func (s PartitionStrategy) String() string {
	switch s {
	case HashPartition:
		return "hash"
	case GridPartition:
		return "grid"
	}
	return fmt.Sprintf("PartitionStrategy(%d)", int(s))
}

// ParsePartitionStrategy maps a case-insensitive name to a strategy; the
// empty string selects HashPartition.
func ParsePartitionStrategy(name string) (PartitionStrategy, error) {
	switch strings.ToLower(name) {
	case "", "hash":
		return HashPartition, nil
	case "grid":
		return GridPartition, nil
	}
	return 0, fmt.Errorf("relation: unknown partition strategy %q (want hash|grid)", name)
}

// maxShards bounds requested shard counts; beyond this the per-shard
// bookkeeping dwarfs any conceivable win.
const maxShards = 1 << 16

// ShardBounds is one shard's bounding metadata: a bounding ball
// (centroid + radius) and the minimum bounding rectangle of its vectors,
// and its true maximum score. From it a coordinator derives, without
// touching the shard's tuples, a lower bound on any sort key the shard
// can produce — the basis for distance-aware shard pruning (the
// partition-pruning idea of the MapReduce kNN-join literature applied to
// rank-join sources).
type ShardBounds struct {
	// Centroid is the mean of the shard's vectors.
	Centroid []float64 `json:"centroid"`
	// Radius is the maximum Euclidean distance from Centroid to any
	// tuple in the shard.
	Radius float64 `json:"radius"`
	// Min and Max are the corners of the shard's minimum bounding
	// rectangle. Bounds built without them (nil) are a ball only.
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
	// MaxScore is the largest tuple score present in the shard (its
	// effective σ_max, at most the parent's declared bound).
	MaxScore float64 `json:"maxScore"`
	// Tuples is the shard's tuple count.
	Tuples int `json:"tuples"`
}

// boundSlack shrinks derived lower bounds by a relative hair so that
// floating-point rounding in the centroid/radius/triangle-inequality
// arithmetic can never push a bound above a shard's true minimum key —
// which would reorder a byte-identical merge. The true bound inequality
// holds exactly in real arithmetic; 1e-9 relative dwarfs the ~1e-15
// per-operation error while costing nothing measurable in pruning power.
const boundSlack = 1e-9

// DistanceLowerBound returns a sound lower bound on the Euclidean
// distance from q to any tuple in the shard: the larger of d(q,centroid)
// − radius and the distance from q to the rectangle, floored at 0 and
// deflated by boundSlack. The triangle inequality is what makes the ball
// sound. The rectangle is the tighter of the two for a box-shaped shard;
// the ball stays because .prox files store and verify it.
//
// The ball's operands are slackened apart, the distance down and the
// radius up, before they are subtracted: the difference cancels, so a
// slack relative to it alone does not cover their rounding when q lies
// within a few ulps of the ball's surface. The rectangle's distance is
// monotone in every rounding step (rtree.Rect.MinDist2) and needs none of
// its own; the closing factor is the one slack applied to both.
func (b ShardBounds) DistanceLowerBound(q vec.Vector) float64 {
	d := vec.Vector(b.Centroid).Dist(q)*(1-boundSlack) - b.Radius*(1+boundSlack)
	if b.Min != nil {
		d = max(d, math.Sqrt(rtree.Rect{Min: b.Min, Max: b.Max}.MinDist2(q)))
	}
	// A ball whose distance and radius both overflow yields Inf − Inf:
	// NaN bounds nothing, so it falls to 0 with the negative bounds.
	if !(d > 0) {
		return 0
	}
	return d * (1 - boundSlack)
}

// computeBounds derives the bounding metadata of the shard holding the
// tuples of r that group names — at least one — summing in group order:
// the centroid's float bits, which a coordinator cross-checks, depend on
// it. The rectangle's do not (ExtendRect is order-independent), so a
// relfile re-derives it bit-exactly from its score-ordered columns.
func computeBounds(r *Relation, group []int) ShardBounds {
	n := len(group)
	b := ShardBounds{Tuples: n, MaxScore: math.Inf(-1)}
	c := make([]float64, r.dim)
	b.Min, b.Max = EmptyRect(r.dim)
	for _, ord := range group {
		t := r.tuples[ord]
		for d := 0; d < r.dim; d++ {
			c[d] += t.Vec[d]
		}
		ExtendRect(b.Min, b.Max, t.Vec)
		if t.Score > b.MaxScore {
			b.MaxScore = t.Score
		}
	}
	for d := range c {
		c[d] /= float64(n)
	}
	b.Centroid = c
	for _, ord := range group {
		if d := r.tuples[ord].Vec.Dist(c); d > b.Radius {
			b.Radius = d
		}
	}
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
// score order with its own R-tree, shared read-only across queries.
// Query-time streams are per-shard sources k-way-merged back into one
// canonical order (see MergedSource), so a sharded relation answers
// byte-identically to its unsharded form while bounding per-shard index
// memory and enabling parallel builds and distribution across shard
// servers.
type Sharded struct {
	parent   *Relation
	shards   []shard
	strategy PartitionStrategy
}

// Partition splits r into at most n shards under the given strategy and
// builds each shard's score-ordered columns, bounds and R-tree in
// parallel. Fewer than n shards are returned when the strategy leaves
// some empty (n exceeding the tuple count, or hash skew). A sole shard
// serves r itself: ShardRelation(0) is r, untouched.
func Partition(r *Relation, n int, strategy PartitionStrategy) (*Sharded, error) {
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
		switch strategy {
		case HashPartition:
			groups = hashGroups(r, n)
		case GridPartition:
			groups = gridGroups(r, n)
		default:
			return nil, fmt.Errorf("relation %q: unknown partition strategy %v", r.Name, strategy)
		}
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

	s := &Sharded{parent: r, strategy: strategy, shards: make([]shard, len(groups))}
	// Sorting and index construction dominate partitioning cost; build
	// every shard concurrently. Bounds sum in group order, before the
	// columns re-order the tuples by score.
	var wg sync.WaitGroup
	for i, g := range groups {
		sh := &s.shards[i]
		sh.rel = shardRel(r, i, len(groups), len(g))
		wg.Add(1)
		go func(g []int) {
			defer wg.Done()
			sh.bounds = computeBounds(r, g)
			sh.cols = scoreOrdered(r, g)
			sh.rtree()
		}(g)
	}
	wg.Wait()
	return s, nil
}

// fnv64a is the FNV-1a hash, inlined to keep tuple assignment
// allocation-free.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashGroups assigns tuple i to shard fnv64a(ID) mod n, preserving
// storage order within each group.
func hashGroups(r *Relation, n int) [][]int {
	groups := make([][]int, n)
	for i, t := range r.tuples {
		g := int(fnv64a(t.ID) % uint64(n))
		groups[g] = append(groups[g], i)
	}
	return groups
}

// gridGroups cuts r into n size-balanced axis-aligned boxes by recursive
// median cut: a run of tuples due n boxes is split across its axis of
// widest extent, the len·⌊n/2⌋/n smallest under (coordinate, ordinal)
// going left with ⌊n/2⌋ boxes and the rest right with the others. That
// order is total, so the boxes are a function of the tuples alone, and
// every box lists its ordinals ascending: computeBounds sums in that
// order. Boxes, unlike runs of a cell ordering, have rectangles that do
// not overlap beyond shared faces — what lets ShardBounds' rectangle prune.
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

// Strategy returns the partition strategy the shards were built under.
func (s *Sharded) Strategy() PartitionStrategy { return s.strategy }

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
// back into the canonical relation order via Merge. useRTree false sorts
// the shard instead of traversing its R-tree — same stream, and no caller
// outside the tests asks for it (OpenSource never does). The distance is
// always Euclidean: metric is ignored, and stays in the signature only
// because the benchmark module (bench/) passes it.
func (s *Sharded) ShardSource(i int, kind AccessKind, q vec.Vector, _ vec.Metric, useRTree bool) (Source, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("relation %q: shard %d out of range [0,%d)", s.parent.Name, i, len(s.shards))
	}
	return openOne(s.shards[i:i+1], kind, q, useRTree)
}

// Merge k-way-merges one stream per shard (as produced by ShardSource,
// in shard order) into a single stream in the canonical relation order.
// A single-shard set passes its stream through untouched.
func (s *Sharded) Merge(sources []Source) (Source, error) {
	if len(sources) != len(s.shards) {
		return nil, fmt.Errorf("relation %q: merging %d sources across %d shards", s.parent.Name, len(sources), len(s.shards))
	}
	if len(sources) == 1 {
		return sources[0], nil
	}
	kind := sources[0].Kind()
	ks := make([]KeyedSource, len(sources))
	for i, src := range sources {
		k, ok := src.(KeyedSource)
		if !ok {
			return nil, fmt.Errorf("relation %q: source %d (%T) is not a shard stream", s.parent.Name, i, src)
		}
		if src.Kind() != kind {
			return nil, fmt.Errorf("relation %q: source %d has access kind %v, source 0 has %v", s.parent.Name, i, src.Kind(), kind)
		}
		ks[i] = k
	}
	return newMergedSource(s.parent, kind, ks), nil
}

// openSource implements Input: per-shard streams merged into one. Every
// shard owns an R-tree, so that is what a distance stream reads.
// A sole shard's stream is the whole stream, opened without the merge's
// slice.
func (s *Sharded) openSource(kind AccessKind, q vec.Vector) (Source, error) {
	if len(s.shards) == 1 {
		return openOne(s.shards, kind, q, true)
	}
	sources := make([]Source, len(s.shards))
	if err := openShards(sources, s.shards, kind, q, true); err != nil {
		return nil, err
	}
	return s.Merge(sources)
}
