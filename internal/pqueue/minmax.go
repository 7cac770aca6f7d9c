package pqueue

import "math/bits"

// MinMax is a double-ended priority queue implemented as a min-max heap
// (Atkinson et al. 1986): even levels order toward the minimum, odd
// levels toward the maximum, so both ends are readable in O(1) and
// removable in O(log n) with no auxiliary structure. The engine's bounded
// enumeration buffer relies on exactly this pair of operations: emit the
// best buffered combination while evicting or spilling the worst once
// the buffer reaches its cap.
//
// The zero value is not usable; construct with NewMinMax. less(a, b)
// reports that a orders before b (toward the Min end).
type MinMax[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewMinMax returns an empty min-max heap ordered by less.
func NewMinMax[T any](less func(a, b T) bool) *MinMax[T] {
	return &MinMax[T]{less: less}
}

// Len returns the number of queued elements.
func (h *MinMax[T]) Len() int { return len(h.items) }

// Push inserts x.
func (h *MinMax[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// PeekMin returns the element ordering first; ok is false when empty.
func (h *MinMax[T]) PeekMin() (top T, ok bool) {
	if len(h.items) == 0 {
		return top, false
	}
	return h.items[0], true
}

// PeekMax returns the element ordering last; ok is false when empty.
func (h *MinMax[T]) PeekMax() (top T, ok bool) {
	if len(h.items) == 0 {
		return top, false
	}
	return h.items[h.maxIndex()], true
}

// PopMin removes and returns the element ordering first.
func (h *MinMax[T]) PopMin() (top T, ok bool) {
	if len(h.items) == 0 {
		return top, false
	}
	return h.removeAt(0), true
}

// PopMax removes and returns the element ordering last.
func (h *MinMax[T]) PopMax() (top T, ok bool) {
	if len(h.items) == 0 {
		return top, false
	}
	return h.removeAt(h.maxIndex()), true
}

// maxIndex returns the index of the maximum element (len > 0).
func (h *MinMax[T]) maxIndex() int {
	switch len(h.items) {
	case 1:
		return 0
	case 2:
		return 1
	}
	if h.less(h.items[1], h.items[2]) {
		return 2
	}
	return 1
}

// removeAt removes and returns items[i], restoring the heap property.
func (h *MinMax[T]) removeAt(i int) T {
	last := len(h.items) - 1
	out := h.items[i]
	h.items[i] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	return out
}

// onMinLevel reports whether index i sits on an even (min-ordered) level.
func onMinLevel(i int) bool {
	return bits.Len(uint(i)+1)%2 == 1
}

// before reports whether a orders before b in the direction of level kind
// min (toward Min when min, toward Max otherwise).
func (h *MinMax[T]) before(a, b T, min bool) bool {
	if min {
		return h.less(a, b)
	}
	return h.less(b, a)
}

func (h *MinMax[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
}

// up restores the heap property from a freshly written index toward the
// root.
func (h *MinMax[T]) up(i int) {
	if i == 0 {
		return
	}
	parent := (i - 1) / 2
	min := onMinLevel(i)
	if h.before(h.items[parent], h.items[i], min) {
		// The element belongs on the opposite-ordered levels.
		h.swap(i, parent)
		h.upSame(parent, !min)
		return
	}
	h.upSame(i, min)
}

// upSame bubbles items[i] up its own level kind (grandparent chain).
func (h *MinMax[T]) upSame(i int, min bool) {
	for i > 2 {
		g := ((i-1)/2 - 1) / 2
		if !h.before(h.items[i], h.items[g], min) {
			return
		}
		h.swap(i, g)
		i = g
	}
}

// down restores the heap property from index i toward the leaves.
func (h *MinMax[T]) down(i int) {
	min := onMinLevel(i)
	n := len(h.items)
	for {
		// m: the extreme element among children and grandchildren of i.
		m, grand := -1, false
		child := 2*i + 1
		for c := child; c <= child+1 && c < n; c++ {
			if m < 0 || h.before(h.items[c], h.items[m], min) {
				m, grand = c, false
			}
		}
		gchild := 2*child + 1
		for g := gchild; g <= gchild+3 && g < n; g++ {
			if m < 0 || h.before(h.items[g], h.items[m], min) {
				m, grand = g, true
			}
		}
		if m < 0 || !h.before(h.items[m], h.items[i], min) {
			return
		}
		h.swap(m, i)
		if !grand {
			return
		}
		if p := (m - 1) / 2; h.before(h.items[p], h.items[m], min) {
			h.swap(m, p)
		}
		i = m
	}
}
