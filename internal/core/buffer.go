package core

import (
	"sort"

	"repro/internal/pqueue"
)

// topK is the slice-backed top-K buffer retained for the Naive oracle: it
// keeps the K best combinations seen so far, with deterministic
// tie-breaking (lower rank vectors win on equal scores). The engine's one
// output buffer is the arena-backed sessionBuffer instead.
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

// deferredCut is one subtree Engine.candidates cut below the floor of an
// open session, kept as a record instead of dropped. Its members are the
// ranks below the recorded depth of the cut level that fail the cut test
// reach(level, partial + solo[r]) ≥ key, crossed with every inner level's
// prefix as deep as it was at cut time, under the fixed ranks of the
// outer levels and the pulled slot. Replaying the test with the same
// operands recomputes the tail bit for bit, so nothing is enumerated until
// Engine.expandCut. No member scores above its reach, so every member
// scores strictly below key, the floor the cut was made against.
type deferredCut struct {
	key, partial float64
	level, skip  int32
	slot         int32 // cutHeap.arena: n fixed ranks, then n prefix depths
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
