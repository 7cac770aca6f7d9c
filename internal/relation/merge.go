package relation

import (
	"errors"
	"fmt"
	"math"
)

// MergedSource k-way-merges N ordered shard streams into one Source that
// preserves the access-kind ordering contract: a small heap holds one
// head per live shard, keyed by (sort key, parent ordinal). Because each
// shard stream is itself (key, ordinal)-sorted and ordinals are unique
// across shards, the merged sequence is the unique canonical order of the
// parent relation — byte-identical to the unsharded stream.
//
// Every head starts latent, standing in for its input's first unread
// tuple: an input that implements BoundedSource at its key lower bound,
// any other at −∞. A latent head is read only when it reaches the heap
// root, and a shard is re-pulled only after its head has been emitted,
// so draining a prefix of the merged stream costs at most len(prefix)+N
// underlying reads. The −∞ heads are all read before the first emission,
// in input order. A latent head's ordinal is negative (−1 for a bound),
// so at a key tie it sorts before every real head. Every real key of a
// bounded input is >= its bound, so no emission can precede the point
// where the input is read, while an input whose bound the merge never
// reaches is never read at all. For shard streams this deferral is
// distance-aware shard pruning: a shard, local or remote, is opened only
// when the merge provably needs keys at or past its bound.
//
// The heap is inlined and sized to the shard count at construction, and
// the steady-state emit path is allocation-free: the root head is emitted
// by peek, then overwritten in place by its shard's next tuple and
// restored with a single sift-down — one fixup per tuple instead of the
// pop+push pair of a generic heap, and no re-boxing of the head struct.
type MergedSource struct {
	rel    *Relation
	kind   AccessKind
	inputs []KeyedSource
	heads  []mergeHead // binary min-heap by (key, ord)
	// pending marks that heads[0] was emitted by the previous Next and must
	// be refilled (or retired) before the next emit. Kept set across a
	// failed refill so a retry re-pulls the same shard without skipping or
	// duplicating tuples.
	pending bool
	read    int // inputs read at least once (see InputsRead)
}

// mergeHead is one shard's current front tuple — or, while latent, the
// virtual head standing in for its first unread tuple.
type mergeHead struct {
	src KeyedSource
	t   Tuple
	key float64
	ord int
	// latent marks an input that has not been read yet: key is its lower
	// bound, ord is negative, and t is zero. The input is read (and the
	// head becomes real) only when it reaches the heap root.
	latent bool
}

// newMergedSource builds the merged stream over per-shard sources that
// all share one access kind, every head latent (see the type comment).
func newMergedSource(parent *Relation, kind AccessKind, inputs []KeyedSource) *MergedSource {
	m := &MergedSource{rel: parent, kind: kind, inputs: inputs, heads: make([]mergeHead, len(inputs))}
	for i, src := range inputs {
		h := &m.heads[i]
		h.src, h.key, h.ord, h.latent = src, math.Inf(-1), i-len(inputs)-1, true
		if b, ok := src.(BoundedSource); ok {
			h.key, h.ord = b.KeyLowerBound(), -1
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// NewMergedSource merges externally-constructed keyed streams — remote
// shard readers, local shard sources, or any mix — into the canonical
// parent order. Every input must stream in kind's (key, ordinal) order
// with ordinals unique across all inputs; parent supplies σ_max and
// metadata for the engine. Inputs implementing BoundedSource are opened
// lazily (see the type comment).
func NewMergedSource(parent *Relation, kind AccessKind, inputs []KeyedSource) (*MergedSource, error) {
	if parent == nil {
		return nil, fmt.Errorf("relation: merged source needs a parent relation")
	}
	for i, src := range inputs {
		if src == nil {
			return nil, fmt.Errorf("relation %q: merge input %d is nil", parent.Name, i)
		}
		if src.Kind() != kind {
			return nil, fmt.Errorf("relation %q: merge input %d has access kind %v, want %v",
				parent.Name, i, src.Kind(), kind)
		}
	}
	return newMergedSource(parent, kind, inputs), nil
}

func (m *MergedSource) less(a, b *mergeHead) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.ord < b.ord
}

func (m *MergedSource) siftDown(i int) {
	n := len(m.heads)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && m.less(&m.heads[right], &m.heads[left]) {
			least = right
		}
		if !m.less(&m.heads[least], &m.heads[i]) {
			return
		}
		m.heads[i], m.heads[least] = m.heads[least], m.heads[i]
		i = least
	}
}

// retireRoot drops the root head (its shard is exhausted) and restores
// heap order.
func (m *MergedSource) retireRoot() {
	last := len(m.heads) - 1
	m.heads[0] = m.heads[last]
	m.heads[last] = mergeHead{} // release the retired shard's source
	m.heads = m.heads[:last]
	m.siftDown(0)
}

// refillRoot replaces the emitted root head with its shard's next tuple in
// place (or retires the shard on exhaustion) and restores heap order with
// one sift-down.
func (m *MergedSource) refillRoot() error {
	t, key, ord, err := m.heads[0].src.NextKeyed()
	if errors.Is(err, ErrExhausted) {
		m.retireRoot()
		m.pending = false
		return nil
	}
	if err != nil {
		return err // pending stays set: a retry refills the same shard
	}
	h := &m.heads[0]
	h.t, h.key, h.ord = t, key, ord
	m.siftDown(0)
	m.pending = false
	return nil
}

// materializeRoot reads the first tuple of the latent root and turns its
// virtual head real (or retires the shard if it turns out empty). A
// latentShard hands over the stream it just opened, so every later read
// of the shard skips the wrapper. On a transient read error the head
// stays latent at the root, so a retry re-attempts the same source
// without skipping or reordering anything.
func (m *MergedSource) materializeRoot() error {
	h := &m.heads[0]
	t, key, ord, err := h.src.NextKeyed()
	if errors.Is(err, ErrExhausted) {
		m.read++
		m.retireRoot()
		return nil
	}
	if err != nil {
		return err
	}
	m.read++
	if l, ok := h.src.(*latentShard); ok {
		h.src = l.src
	}
	h.t, h.key, h.ord, h.latent = t, key, ord, false
	m.siftDown(0)
	return nil
}

// Next implements Source.
func (m *MergedSource) Next() (Tuple, error) {
	if err := m.advance(); err != nil {
		return Tuple{}, err
	}
	return m.heads[0].t, nil
}

// NextKeyed implements KeyedSource: the emitted head's key and parent
// ordinal, so a merge can itself be the input of another merge.
func (m *MergedSource) NextKeyed() (Tuple, float64, int, error) {
	if err := m.advance(); err != nil {
		return Tuple{}, 0, 0, err
	}
	h := &m.heads[0]
	return h.t, h.key, h.ord, nil
}

// advance brings the next tuple to emit to the heap root and marks it
// emitted. Next and NextKeyed share it rather than one wrapping the
// other: a wrapped Next read a local merge 15 % slower. Access errors
// from a shard propagate as-is and leave the merge consistent: a retry
// re-pulls the failed shard without skipping or duplicating tuples.
func (m *MergedSource) advance() error {
	if m.pending {
		if err := m.refillRoot(); err != nil {
			return err
		}
	}
	// A latent head at the root means the merge has advanced to a shard's
	// lower bound (−∞ for an unbounded input): its true first tuple may now
	// be due, so read it. The loop re-checks because materialization can
	// surface another latent head (or retire the shard and promote one).
	for len(m.heads) > 0 && m.heads[0].latent {
		if err := m.materializeRoot(); err != nil {
			return err
		}
	}
	if len(m.heads) == 0 {
		return ErrExhausted
	}
	m.pending = true
	return nil
}

// InputsRead returns how many inputs the merge has read so far. A
// latent input is read only once the merge's frontier reaches its bound,
// so of bounded inputs at most those whose bound lies at or below the
// last key emitted have been read.
func (m *MergedSource) InputsRead() int { return m.read }

// Close implements Closer: it closes every input that has a Close — opened,
// latent or retired alike — and ends the merge, so later reads report
// ErrExhausted.
func (m *MergedSource) Close() {
	for _, in := range m.inputs {
		if c, ok := in.(Closer); ok {
			c.Close()
		}
	}
	m.heads, m.pending = nil, false
}

// Kind implements Source.
func (m *MergedSource) Kind() AccessKind { return m.kind }

// Relation implements Source: the parent relation, so σ_max and error
// messages reflect what the caller queried.
func (m *MergedSource) Relation() *Relation { return m.rel }
