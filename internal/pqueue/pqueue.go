// Package pqueue provides generic binary heaps used by the engine: the
// top-K output buffer and the lazy bound heaps of the tight bounding
// scheme, and (SiftUp, SiftDown) the sifts of the heaps it keeps in its
// own slab columns. (The R-tree's nearest-neighbor traversal keeps its
// own inlined heap of 16-byte items; see internal/rtree.)
//
// Heap is a plain priority queue ordered by a user-supplied less function.
// Dense additionally tracks element positions, so that the priority stored
// under a key can be updated in O(log n); keys are small dense non-negative
// integers and the position table is a slice, making the steady state
// allocation-free.
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

// Grow reserves capacity for at least n total elements.
func (h *Heap[T]) Grow(n int) {
	if cap(h.items) < n {
		items := make([]T, len(h.items), n)
		copy(items, h.items)
		h.items = items
	}
}

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

// Clear empties the heap, retaining capacity.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

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

// Dense is an indexed priority queue specialized for small, dense,
// non-negative keys (array indices): the key→position table is a slice
// instead of a map, so Push and Update allocate only when the backing
// arrays grow — the steady state is allocation-free. Sift order is that
// of the textbook map-indexed heap the property test keeps as its oracle,
// so heap layout (and therefore Peek tie-breaking) matches it exactly.
//
// Keys must be non-negative; the position table grows to the largest
// key ever pushed, so keys should stay proportional to the number of
// live elements (ids handed out by an arena, slice indices).
type Dense[T any] struct {
	items []indexedItem[T]
	pos   []int32 // key -> index in items, -1 when absent
	less  func(a, b T) bool
}

type indexedItem[T any] struct {
	key int
	val T
}

// NewDense returns an empty dense-key indexed heap ordered by less.
func NewDense[T any](less func(a, b T) bool) *Dense[T] {
	return &Dense[T]{less: less}
}

// MakeDense returns an empty dense-key indexed heap by value, for
// embedding in a larger arena-allocated struct without a separate heap
// allocation.
func MakeDense[T any](less func(a, b T) bool) Dense[T] {
	return Dense[T]{less: less}
}

// Len returns the number of queued elements.
func (h *Dense[T]) Len() int { return len(h.items) }

// Grow reserves capacity for at least n total elements (and keys up to
// n-1) so a known batch of pushes does not reallocate once per doubling.
func (h *Dense[T]) Grow(n int) {
	if cap(h.items) < n {
		items := make([]indexedItem[T], len(h.items), n)
		copy(items, h.items)
		h.items = items
	}
	if cap(h.pos) < n {
		np := make([]int32, len(h.pos), n)
		copy(np, h.pos)
		h.pos = np
	}
	for len(h.pos) < cap(h.pos) {
		h.pos = append(h.pos, -1)
	}
}

// has reports whether key is queued.
func (h *Dense[T]) has(key int) bool {
	return key >= 0 && key < len(h.pos) && h.pos[key] >= 0
}

// Push inserts val under key. It panics if key is negative or already
// present.
func (h *Dense[T]) Push(key int, val T) {
	if key < 0 {
		panic("pqueue: negative key")
	}
	if h.has(key) {
		panic("pqueue: duplicate key")
	}
	for key >= len(h.pos) {
		// Grow the position table with a floor so early pushes do not
		// reallocate once per key.
		n := 2 * cap(h.pos)
		if n < 64 {
			n = 64
		}
		np := make([]int32, len(h.pos), n)
		copy(np, h.pos)
		h.pos = np
		for len(h.pos) < cap(h.pos) {
			h.pos = append(h.pos, -1)
		}
	}
	h.items = append(h.items, indexedItem[T]{key: key, val: val})
	i := len(h.items) - 1
	h.pos[key] = int32(i)
	h.up(i)
}

// Peek returns the highest-priority key and value.
func (h *Dense[T]) Peek() (key int, val T, ok bool) {
	if len(h.items) == 0 {
		return 0, val, false
	}
	return h.items[0].key, h.items[0].val, true
}

// Pop removes and returns the highest-priority key and value.
func (h *Dense[T]) Pop() (key int, val T, ok bool) {
	if len(h.items) == 0 {
		return 0, val, false
	}
	it := h.items[0]
	last := len(h.items) - 1
	h.pos[it.key] = -1
	if last > 0 {
		h.items[0] = h.items[last]
		h.pos[h.items[0].key] = 0
	}
	h.items[last] = indexedItem[T]{}
	h.items = h.items[:last]
	h.down(0)
	return it.key, it.val, true
}

// Update replaces the value under key and restores heap order. It panics
// if key is absent.
func (h *Dense[T]) Update(key int, val T) {
	if !h.has(key) {
		panic("pqueue: update of missing key")
	}
	i := int(h.pos[key])
	h.items[i].val = val
	h.up(i)
	h.down(i)
}

func (h *Dense[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i].val, h.items[parent].val) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Dense[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		best := l
		if r < n && h.less(h.items[r].val, h.items[l].val) {
			best = r
		}
		if !h.less(h.items[best].val, h.items[i].val) {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *Dense[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].key] = int32(i)
	h.pos[h.items[j].key] = int32(j)
}
