package pqueue

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDenseBasic(t *testing.T) {
	h := NewDense[float64](func(a, b float64) bool { return a > b }) // max-heap
	if _, _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned ok")
	}
	h.Push(10, 1.5)
	h.Push(20, 9.5)
	h.Push(30, 4.5)
	if k, v, _ := h.Peek(); k != 20 || v != 9.5 {
		t.Fatalf("Peek = %d %v", k, v)
	}
	h.Update(10, 100)
	if k, _, _ := h.Peek(); k != 10 {
		t.Fatalf("after Update peek key = %d", k)
	}
	if k, v, ok := h.Pop(); !ok || k != 10 || v != 100 {
		t.Fatalf("Pop = %d %v %v", k, v, ok)
	}
	k, v, ok := h.Pop()
	if !ok || k != 20 || v != 9.5 {
		t.Fatalf("Pop = %d %v %v", k, v, ok)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
	// A popped key can be pushed again.
	h.Push(10, 2.5)
	if k, v, _ := h.Peek(); k != 30 || v != 4.5 {
		t.Fatalf("re-push Peek = %d %v", k, v)
	}
}

func TestDenseDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate key did not panic")
		}
	}()
	h := NewDense[int](intMin)
	h.Push(1, 1)
	h.Push(1, 2)
}

func TestDenseNegativeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative key did not panic")
		}
	}()
	NewDense[int](intMin).Push(-1, 1)
}

func TestDenseUpdateMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("update missing key did not panic")
		}
	}()
	NewDense[int](intMin).Update(5, 1)
}

// Property: Dense agrees with Indexed operation for operation — same
// peeks, same pop order — under a random push/update/pop sequence with
// dense arena-style keys. Dense replaced Indexed under the tight bound's
// per-subset heap, so behavioral equality is what keeps that swap
// invisible.
func TestQuickDenseMatchesIndexed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		max := func(a, b float64) bool { return a > b }
		d := NewDense[float64](max)
		ix := NewIndexed[float64](max)
		live := []int{}
		nextKey := 0
		for op := 0; op < 300; op++ {
			switch r.Intn(4) {
			case 0, 1: // push
				v := r.Float64()
				d.Push(nextKey, v)
				ix.Push(nextKey, v)
				live = append(live, nextKey)
				nextKey++
			case 2: // update random existing
				if len(live) == 0 {
					continue
				}
				k := live[r.Intn(len(live))]
				v := r.Float64() * 2
				d.Update(k, v)
				ix.Update(k, v)
			case 3: // pop
				dk, dv, dok := d.Pop()
				ik, iv, iok := ix.Pop()
				if dok != iok || dv != iv || dk != ik {
					return false
				}
				if i := slices.Index(live, dk); dok {
					live = slices.Delete(live, i, i+1)
				}
			}
			dk, dv, dok := d.Peek()
			ik, iv, iok := ix.Peek()
			if dok != iok || dv != iv || dk != ik {
				return false
			}
			if d.Len() != ix.Len() {
				return false
			}
		}
		for d.Len() > 0 {
			dk, dv, _ := d.Pop()
			ik, iv, iok := ix.Pop()
			if !iok || dk != ik || dv != iv {
				return false
			}
		}
		_, _, ok := ix.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Indexed is the oracle of the Dense property test: the textbook indexed
// heap, its key→position table a map. Keys must be unique among live
// elements.
type Indexed[T any] struct {
	items []indexedItem[T]
	pos   map[int]int // key -> index in items
	less  func(a, b T) bool
}

// NewIndexed returns an empty indexed heap ordered by less.
func NewIndexed[T any](less func(a, b T) bool) *Indexed[T] {
	return &Indexed[T]{pos: make(map[int]int), less: less}
}

// Len returns the number of queued elements.
func (h *Indexed[T]) Len() int { return len(h.items) }

// Push inserts val under key. It panics if key is already present.
func (h *Indexed[T]) Push(key int, val T) {
	if _, dup := h.pos[key]; dup {
		panic("pqueue: duplicate key")
	}
	h.items = append(h.items, indexedItem[T]{key: key, val: val})
	i := len(h.items) - 1
	h.pos[key] = i
	h.up(i)
}

// Peek returns the highest-priority key and value.
func (h *Indexed[T]) Peek() (key int, val T, ok bool) {
	if len(h.items) == 0 {
		return 0, val, false
	}
	return h.items[0].key, h.items[0].val, true
}

// Pop removes and returns the highest-priority key and value.
func (h *Indexed[T]) Pop() (key int, val T, ok bool) {
	if len(h.items) == 0 {
		return 0, val, false
	}
	it := h.items[0]
	last := len(h.items) - 1
	delete(h.pos, it.key)
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
func (h *Indexed[T]) Update(key int, val T) {
	i, ok := h.pos[key]
	if !ok {
		panic("pqueue: update of missing key")
	}
	h.items[i].val = val
	h.up(i)
	h.down(i)
}

func (h *Indexed[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i].val, h.items[parent].val) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Indexed[T]) down(i int) {
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

func (h *Indexed[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].key] = i
	h.pos[h.items[j].key] = j
}
