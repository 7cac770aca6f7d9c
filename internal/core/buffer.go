package core

import (
	"sort"

	"repro/internal/pqueue"
)

// topK is the slice-backed top-K buffer retained for the Naive oracle: it
// keeps the K best combinations seen so far, with deterministic
// tie-breaking (lower rank vectors win on equal scores). The engine's hot
// path uses the arena-backed refTopK below instead.
type topK struct {
	k    int
	heap *pqueue.Heap[Combination] // worst-first
}

// combWorse reports whether a is a strictly worse result than b.
func combWorse(a, b Combination) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return rankLess(b.Ranks, a.Ranks) // higher rank vector is worse
}

// rankLess is lexicographic order on rank vectors.
func rankLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func newTopK(k int) *topK {
	return &topK{k: k, heap: pqueue.New(combWorse)}
}

// push offers a combination, evicting the worst if the buffer overflows.
func (t *topK) push(c Combination) {
	if t.heap.Len() < t.k {
		t.heap.Push(c)
		return
	}
	worst, _ := t.heap.Peek()
	if combWorse(worst, c) {
		t.heap.Pop()
		t.heap.Push(c)
	}
}

// len returns the number of buffered combinations.
func (t *topK) len() int { return t.heap.Len() }

// kthScore returns the score of the worst buffered combination; callers
// must check len() == k before treating it as the K-th best.
func (t *topK) kthScore() float64 {
	worst, ok := t.heap.Peek()
	if !ok {
		return negInf
	}
	return worst.Score
}

// sorted drains nothing and returns the buffered combinations best-first.
func (t *topK) sorted() []Combination {
	out := make([]Combination, len(t.heap.Items()))
	copy(out, t.heap.Items())
	sort.Slice(out, func(i, j int) bool { return combWorse(out[j], out[i]) })
	return out
}

// refSink is the destination of formed combinations on the hot path: the
// batch refTopK or the iterator's session buffer. offer receives the
// aggregate score and the scratch rank vector (copied only if the
// combination is retained); floor exposes the score below which an
// incoming combination is certain not to be retained in ranked form, which
// enumerate uses to cut cross-product subtrees before they are
// materialized. What becomes of
// a cut is the engine's cuts store: dropped without one, a deferredCut
// with one.
type refSink interface {
	offer(score float64, ranks []int32)
	floor() (float64, bool)
}

// deferredCut is one subtree Engine.candidates cut below the floor of an
// open session, kept as a record instead of dropped. Its members are the
// ranks below the recorded depth of the cut level that fail the
// cut test partial + solo[r] + sufB ≥ bar, crossed with every inner
// level's prefix as deep as it was at cut time, under the fixed ranks of
// the outer levels and the pulled slot. Replaying the test with the same
// operands recomputes the tail bit for bit, so nothing is enumerated until
// Engine.expandCut. By pruneSlack's argument every member scores strictly
// below key, the floor the cut was made against.
type deferredCut struct {
	key, partial, sufB, bar float64
	level, skip             int32
	slot                    int32 // cutHeap.arena: n fixed ranks, then n prefix depths
}

// cutHeap holds an open session's deferred cuts, best key first.
type cutHeap struct {
	arena *combArena // 2n int32 per record
	heap  *pqueue.Heap[deferredCut]
	scr   []int32 // one record's payload while it is being filled
}

func newCutHeap(n int) *cutHeap {
	return &cutHeap{
		arena: newCombArena(2 * n),
		heap:  pqueue.New(func(a, b deferredCut) bool { return a.key > b.key }),
		scr:   make([]int32, 2*n),
	}
}

// refTopK is the arena-backed output buffer O of Algorithm 1: it retains
// the K best combinations with the same total order as topK, but one
// retained combination costs one arena slot (n int32 ranks) instead of
// two heap allocations, and evicted combinations recycle their slot.
type refTopK struct {
	k     int
	arena *combArena
	heap  *pqueue.Heap[combRef] // worst-first
	peak  *int                  // high-water mark sink (Stats.PeakBuffered)
}

func newRefTopK(k int, arena *combArena, peak *int) *refTopK {
	t := &refTopK{k: k, arena: arena, heap: pqueue.New(arena.refWorse), peak: peak}
	t.heap.Grow(k)
	return t
}

// offer implements refSink: combinations that cannot enter the top K are
// rejected without touching the arena.
func (t *refTopK) offer(score float64, ranks []int32) {
	if t.heap.Len() < t.k {
		t.heap.Push(combRef{slot: t.arena.alloc(ranks), score: score})
		if t.heap.Len() > *t.peak {
			*t.peak = t.heap.Len()
		}
		return
	}
	worst, _ := t.heap.Peek()
	if t.arena.beats(score, ranks, worst) {
		t.heap.Pop()
		t.arena.release(worst.slot)
		t.heap.Push(combRef{slot: t.arena.alloc(ranks), score: score})
	}
}

// floor implements refSink: once the buffer holds K combinations, nothing
// scoring below the current K-th best can ever be admitted.
func (t *refTopK) floor() (float64, bool) {
	if t.heap.Len() < t.k {
		return negInf, false
	}
	worst, _ := t.heap.Peek()
	return worst.score, true
}

// len returns the number of buffered combinations.
func (t *refTopK) len() int { return t.heap.Len() }

// kthScore returns the score of the worst buffered combination.
func (t *refTopK) kthScore() float64 {
	worst, ok := t.heap.Peek()
	if !ok {
		return negInf
	}
	return worst.score
}

// sortedRefs returns the buffered refs best-first.
func (t *refTopK) sortedRefs() []combRef {
	out := make([]combRef, len(t.heap.Items()))
	copy(out, t.heap.Items())
	sort.Slice(out, func(i, j int) bool { return t.arena.refWorse(out[j], out[i]) })
	return out
}
