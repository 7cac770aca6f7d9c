package relation

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/rtree"
	"repro/internal/vec"
)

// Tuple is one object of a relation: named identity, a quality score, and
// a feature vector in R^d.
type Tuple struct {
	ID    string
	Score float64
	Vec   vec.Vector
	Attrs map[string]string
}

// Relation is an immutable collection of tuples sharing a dimensionality
// and a known maximum possible score σ_max (the paper's σ_j^max, needed by
// the bounding schemes).
type Relation struct {
	Name     string
	MaxScore float64
	tuples   []Tuple
	dim      int
	// stubLen, for a metadata-only stub (see NewStub), is the advertised
	// tuple count of a relation whose tuples live in another process.
	// Zero for ordinary relations, whose tuples slice is never empty.
	stubLen int
}

// ErrExhausted is returned by Source.Next when the relation has been read
// completely.
var ErrExhausted = errors.New("relation: source exhausted")

// New validates tuples and builds a relation. Every tuple must share one
// dimensionality, have a finite positive score not exceeding maxScore, and
// a finite feature vector.
func New(name string, maxScore float64, tuples []Tuple) (*Relation, error) {
	if maxScore <= 0 || math.IsInf(maxScore, 0) || math.IsNaN(maxScore) {
		return nil, fmt.Errorf("relation %q: max score %v must be finite and positive", name, maxScore)
	}
	if len(tuples) == 0 {
		return nil, fmt.Errorf("relation %q: no tuples", name)
	}
	dim := tuples[0].Vec.Dim()
	if dim == 0 {
		return nil, fmt.Errorf("relation %q: zero-dimensional tuples", name)
	}
	for i, t := range tuples {
		if t.Vec.Dim() != dim {
			return nil, fmt.Errorf("relation %q: tuple %d has dim %d, want %d", name, i, t.Vec.Dim(), dim)
		}
		if !t.Vec.IsFinite() {
			return nil, fmt.Errorf("relation %q: tuple %d has a non-finite vector", name, i)
		}
		if math.IsNaN(t.Score) || t.Score <= 0 || t.Score > maxScore {
			return nil, fmt.Errorf("relation %q: tuple %d score %v outside (0, %v]", name, i, t.Score, maxScore)
		}
	}
	own := make([]Tuple, len(tuples))
	copy(own, tuples)
	return &Relation{Name: name, MaxScore: maxScore, tuples: own, dim: dim}, nil
}

// NewStub builds a metadata-only relation describing tuples that live in
// another process (a remote shard server). It carries everything the
// engine and a catalog read from a relation — name, σ_max, the feature
// dimensionality, and the remote tuple count via Len — but holds no
// tuples itself: At and Tuples must not be used, local sources cannot be
// opened over it, and it cannot be partitioned. A coordinator hands a
// stub to MergedSource as the parent of remote shard streams, so engine
// bounds (σ_max) and error messages reflect the true remote relation.
func NewStub(name string, maxScore float64, dim, count int) (*Relation, error) {
	if maxScore <= 0 || math.IsInf(maxScore, 0) || math.IsNaN(maxScore) {
		return nil, fmt.Errorf("relation %q: max score %v must be finite and positive", name, maxScore)
	}
	if dim < 1 {
		return nil, fmt.Errorf("relation %q: dimensionality %d must be at least 1", name, dim)
	}
	if count < 1 {
		return nil, fmt.Errorf("relation %q: remote tuple count %d must be at least 1", name, count)
	}
	return &Relation{Name: name, MaxScore: maxScore, dim: dim, stubLen: count}, nil
}

// IsStub reports whether the relation is a metadata-only stub for
// remotely-held tuples (see NewStub).
func (r *Relation) IsStub() bool { return r.stubLen > 0 }

// MustNew is New that panics on error, for tests and literals.
func MustNew(name string, maxScore float64, tuples []Tuple) *Relation {
	r, err := New(name, maxScore, tuples)
	if err != nil {
		panic(err)
	}
	return r
}

// Len returns the number of tuples (the advertised remote count for a
// stub).
func (r *Relation) Len() int {
	if r.stubLen > 0 {
		return r.stubLen
	}
	return len(r.tuples)
}

// Dim returns the feature-space dimensionality.
func (r *Relation) Dim() int { return r.dim }

// At returns the i-th tuple in storage order (not access order).
func (r *Relation) At(i int) Tuple { return r.tuples[i] }

// Tuples returns a copy of the tuple slice.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, len(r.tuples))
	copy(out, r.tuples)
	return out
}

// AccessKind selects the sequential ordering a source provides.
type AccessKind int

const (
	// DistanceAccess streams tuples by increasing distance from the query.
	DistanceAccess AccessKind = iota
	// ScoreAccess streams tuples by decreasing score.
	ScoreAccess
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case DistanceAccess:
		return "distance"
	case ScoreAccess:
		return "score"
	}
	return fmt.Sprintf("AccessKind(%d)", int(k))
}

// Source is a sequential reader over a relation in a fixed access order.
type Source interface {
	// Next returns the next tuple, or ErrExhausted when done. Other errors
	// model transient access failures (see FaultySource).
	Next() (Tuple, error)
	// Kind reports the access ordering this source guarantees.
	Kind() AccessKind
	// Relation returns the underlying relation (for σ_max and metadata).
	Relation() *Relation
}

// Closer is the one optional method of a Source: the end of its life.
// Whoever owns a stream calls Close, if the source has one, when the
// stream is over — an engine session at its own Close, a merge for its
// inputs, a shard server for a connection's stream — and every wrapper
// forwards it. What the source held outside the heap (a pooled
// connection, a reusable traversal queue) is handed on. Close is
// idempotent.
type Closer interface {
	Close()
}

// KeyedSource is the contract merged shard streams rely on: alongside
// each tuple, the source reports the ascending sort key its order is
// defined by and the tuple's ordinal in the parent relation. A distance
// stream's key is the tuple's squared distance to the query, with the bits
// of Vec.Dist2(q); a score stream's is the negated score. Ordinals break key ties with a
// total order every shard of one relation agrees on, which is what makes
// a k-way merge of shard streams byte-identical to the unsharded stream
// (see MergedSource).
//
// Exported so that a stream arriving from another process — a remote
// shard server speaking the shardrpc wire protocol — can join a merge on
// equal terms with local shard streams. A foreign implementation must
// uphold the canonical (key, ordinal) ordering: keys ascending, ordinals
// unique within the parent relation and breaking every key tie.
type KeyedSource interface {
	Source
	NextKeyed() (t Tuple, key float64, ord int, err error)
}

// BoundedSource is a KeyedSource that can report, before its first read,
// a sound lower bound on every merge key it will emit. MergedSource
// keeps such a source latent — represented in the merge by a virtual
// head at the bound — and first reads it only when the bound reaches the
// front of the merge. A latent source whose bound is never reached is
// never read at all; for remote shard streams that is distance-aware
// shard pruning with zero wire traffic, and the emitted sequence is
// provably identical to reading every source's first tuple up front
// (every real key of the source is >= the bound, so no emission could
// have preceded the materialization point).
type BoundedSource interface {
	KeyedSource
	// KeyLowerBound returns b with b <= key for every tuple the source
	// will emit. The bound must stay sound under floating-point rounding
	// (ShardBounds.Dist2LowerBound rounds in the order the keys it bounds
	// do); an overestimate can reorder emissions across shards.
	KeyLowerBound() float64
}

// sortKey is the sort unit of a materialized score order: a tuple's
// ascending merge key and the parent-relation ordinal that breaks key
// ties. Pointer-free, so sorting moves 16 bytes an element past the
// garbage collector's write barriers; the tuples are gathered once, in
// final order.
type sortKey struct {
	key float64
	ord int
}

// sortKeys orders by (key, ordinal) ascending. Ordinals are unique within
// one relation, so the comparator is a total order and the resulting
// permutation is independent of the sorting algorithm.
func sortKeys(ks []sortKey) {
	slices.SortFunc(ks, func(a, b sortKey) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		case a.ord < b.ord:
			return -1
		case a.ord > b.ord:
			return 1
		}
		return 0
	})
}

// rtreeSource serves distance-based access to a shard that does not scan
// (shard.scans) through an R-tree's incremental nearest-neighbor
// traversal, so no global sort is ever materialized. A tuple's Vec is a
// view of the tree's leaf slab, the memory the traversal just read its
// distance from, never the shard's columns (it reads only their Head), so
// a relfile shard's tree stream copies no vector per tuple.
//
// The raw traversal breaks exact-distance ties by heap insertion order,
// which depends on tree structure. rtreeSource re-orders each run of
// equal squared distances by parent ordinal instead, so that every
// distance source — a scan, one shard's R-tree, or merged shard streams —
// emits one canonical (squared distance, ordinal) sequence.
type rtreeSource struct {
	rel     *Relation
	cols    Columns
	tree    *rtree.Tree[int32] // payload: the point's storage index
	it      *rtree.NNIterator[int32]
	look    nnHit // one-item lookahead past the current tie run
	hasLook bool
	batch   []nnHit // current equal-distance run, ordinal-sorted
	pos     int     // next unread element of batch
}

// nnHit is one materialized traversal result: the tree entry that holds
// it, the tuple's storage index and its squared distance. Pointer-free,
// so a tie run buffers without allocating.
type nnHit struct {
	e, idx int32
	dist2  float64
}

func (s *rtreeSource) Next() (Tuple, error) {
	t, _, _, err := s.NextKeyed()
	return t, err
}

// take pulls the next traversal result, honoring the lookahead slot.
func (s *rtreeSource) take() (nnHit, bool) {
	if s.hasLook {
		s.hasLook = false
		return s.look, true
	}
	e, d2, ok := s.it.NextEntry()
	if !ok {
		return nnHit{}, false
	}
	return nnHit{e: int32(e), idx: s.tree.Value(e), dist2: d2}, true
}

// NextKeyed implements KeyedSource.
func (s *rtreeSource) NextKeyed() (Tuple, float64, int, error) {
	if s.pos == len(s.batch) {
		first, ok := s.take()
		if !ok {
			return Tuple{}, 0, 0, ErrExhausted
		}
		// Refill in place: consuming by re-slicing would walk the capacity
		// down to zero and allocate a fresh run on every call.
		s.batch, s.pos = append(s.batch[:0], first), 0
		for {
			h, ok := s.take()
			if !ok {
				break
			}
			if h.dist2 != first.dist2 {
				s.look, s.hasLook = h, true
				break
			}
			s.batch = append(s.batch, h)
		}
		// Order the tie run by parent ordinal. Ordinals are unique, so an
		// insertion sort gives the canonical order without the reflection
		// swapper sort.Slice allocates; tie runs are short in practice.
		for i := 1; i < len(s.batch); i++ {
			for j := i; j > 0 && s.ord(s.batch[j]) < s.ord(s.batch[j-1]); j-- {
				s.batch[j], s.batch[j-1] = s.batch[j-1], s.batch[j]
			}
		}
	}
	h := s.batch[s.pos]
	s.pos++
	t := s.cols.Head(int(h.idx))
	t.Vec = s.tree.Point(int(h.e))
	return t, h.dist2, s.ord(h), nil
}

// ord is a hit's parent ordinal.
func (s *rtreeSource) ord(h nnHit) int { return s.cols.Ordinal(int(h.idx)) }

// Close implements Closer: every later read reports ErrExhausted, and the
// traversal's queue goes to the next one opened. A stream that is merely
// dropped is collected as before.
func (s *rtreeSource) Close() {
	s.hasLook, s.pos = false, len(s.batch)
	s.it.Release()
}

func (s *rtreeSource) Kind() AccessKind    { return DistanceAccess }
func (s *rtreeSource) Relation() *Relation { return s.rel }

// FaultySource wraps a source and fails with Err after FailAfter successful
// reads, modelling a remote service outage. Used for failure-injection
// tests of the engine's error propagation.
type FaultySource struct {
	Inner     Source
	FailAfter int
	Err       error
	reads     int
}

// Next implements Source.
func (f *FaultySource) Next() (Tuple, error) {
	if f.reads >= f.FailAfter {
		if f.Err != nil {
			return Tuple{}, f.Err
		}
		return Tuple{}, errors.New("relation: injected fault")
	}
	t, err := f.Inner.Next()
	if err == nil {
		f.reads++
	}
	return t, err
}

// Close implements Closer by forwarding.
func (f *FaultySource) Close() {
	if c, ok := f.Inner.(Closer); ok {
		c.Close()
	}
}

// Kind implements Source.
func (f *FaultySource) Kind() AccessKind { return f.Inner.Kind() }

// Relation implements Source.
func (f *FaultySource) Relation() *Relation { return f.Inner.Relation() }

// CountingSource wraps a source and counts successful reads; the engine's
// own depth accounting is cross-checked against it in tests.
type CountingSource struct {
	Inner Source
	Reads int
}

// Next implements Source.
func (c *CountingSource) Next() (Tuple, error) {
	t, err := c.Inner.Next()
	if err == nil {
		c.Reads++
	}
	return t, err
}

// Close implements Closer by forwarding.
func (c *CountingSource) Close() {
	if in, ok := c.Inner.(Closer); ok {
		in.Close()
	}
}

// Kind implements Source.
func (c *CountingSource) Kind() AccessKind { return c.Inner.Kind() }

// Relation implements Source.
func (c *CountingSource) Relation() *Relation { return c.Inner.Relation() }
