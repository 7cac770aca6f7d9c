// Package pqueue provides generic binary heaps used by the engine: Heap,
// the top-K output buffer, and (SiftUp, SiftDown) the sifts of the heaps
// it keeps in its own slices: the bySolo rank heaps and the tight
// distance bound's subset heaps of (bound, id) entries, whose root alone
// is re-keyed. Two heaps stay inlined where they are: the R-tree's
// nearest-neighbor traversal keeps its own heap of 16-byte items (see
// internal/rtree), and relation.MergedSource its heap of shard heads,
// which SiftUp/SiftDown with a comparator closure measured slower.
//
// Heap is a plain priority queue ordered by a user-supplied less function.
package pqueue

// Heap is a binary heap over T. The zero value is not usable; construct
// with New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less (less(a,b) means a has higher
// priority and is popped first).
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of queued elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts x.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	SiftUp(h.items, h.less)
}

// Peek returns the highest-priority element without removing it.
// ok is false when the heap is empty.
func (h *Heap[T]) Peek() (top T, ok bool) {
	if len(h.items) == 0 {
		return top, false
	}
	return h.items[0], true
}

// Pop removes and returns the highest-priority element.
// ok is false when the heap is empty.
func (h *Heap[T]) Pop() (top T, ok bool) {
	if len(h.items) == 0 {
		return top, false
	}
	top = h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	SiftDown(h.items, h.less)
	return top, true
}

// Items returns the backing slice in heap order (not sorted). The caller
// must not mutate it.
func (h *Heap[T]) Items() []T { return h.items }

// SiftUp restores the heap order of h under less after an element was
// appended, and SiftDown after its first element was replaced: Heap's
// Push and Pop, for a heap kept in a caller's own slice.
func SiftUp[T any](h []T, less func(a, b T) bool) {
	for i := len(h) - 1; i > 0 && less(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

func SiftDown[T any](h []T, less func(a, b T) bool) {
	for i, c := 0, 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}
