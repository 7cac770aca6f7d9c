package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intMin(a, b int) bool { return a < b }

func TestHeapBasic(t *testing.T) {
	h := New(intMin)
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned ok")
	}
	for _, x := range []int{5, 3, 8, 1, 9, 2} {
		h.Push(x)
	}
	if h.Len() != 6 {
		t.Fatalf("Len = %d", h.Len())
	}
	if top, _ := h.Peek(); top != 1 {
		t.Fatalf("Peek = %d", top)
	}
	var got []int
	for h.Len() > 0 {
		x, _ := h.Pop()
		got = append(got, x)
	}
	want := []int{1, 2, 3, 5, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestHeapClear(t *testing.T) {
	h := New(intMin)
	h.Push(1)
	h.Push(2)
	h.Clear()
	if h.Len() != 0 {
		t.Fatal("Clear left elements")
	}
	h.Push(7)
	if top, _ := h.Pop(); top != 7 {
		t.Fatal("heap unusable after Clear")
	}
}

// Property: heap pop order equals sorted order for random inputs.
func TestQuickHeapSorts(t *testing.T) {
	f := func(xs []int) bool {
		h := New(intMin)
		for _, x := range xs {
			h.Push(x)
		}
		sorted := append([]int(nil), xs...)
		sort.Ints(sorted)
		for _, want := range sorted {
			got, ok := h.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := h.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexedBasic(t *testing.T) {
	h := NewIndexed[float64](func(a, b float64) bool { return a > b }) // max-heap
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
}

func TestIndexedDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate key did not panic")
		}
	}()
	h := NewIndexed[int](intMin)
	h.Push(1, 1)
	h.Push(1, 2)
}

func TestIndexedUpdateMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("update missing key did not panic")
		}
	}()
	NewIndexed[int](intMin).Update(5, 1)
}

// Property: under a random sequence of push/update/pop operations the
// indexed heap always pops the true maximum remaining value.
func TestQuickIndexedMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewIndexed[float64](func(a, b float64) bool { return a > b })
		oracle := map[int]float64{}
		nextKey := 0
		for op := 0; op < 300; op++ {
			switch r.Intn(4) {
			case 0, 1: // push
				v := r.Float64()
				h.Push(nextKey, v)
				oracle[nextKey] = v
				nextKey++
			case 2: // update random existing
				if len(oracle) == 0 {
					continue
				}
				k := randomKey(r, oracle)
				v := r.Float64() * 2
				h.Update(k, v)
				oracle[k] = v
			case 3: // pop: the value the previous step's peek check vouched for
				k, v, ok := h.Pop()
				if ok != (len(oracle) > 0) || (ok && v != oracle[k]) {
					return false
				}
				delete(oracle, k)
			}
			// Check the peek against oracle max.
			if len(oracle) == 0 {
				if _, _, ok := h.Peek(); ok {
					return false
				}
				continue
			}
			wantV := -1.0
			for _, v := range oracle {
				if v > wantV {
					wantV = v
				}
			}
			_, v, ok := h.Peek()
			if !ok || v != wantV {
				return false
			}
		}
		// Drain and check descending order.
		prev := 1e18
		for h.Len() > 0 {
			_, v, _ := h.Pop()
			if v > prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomKey(r *rand.Rand, m map[int]float64) int {
	i := r.Intn(len(m))
	for k := range m {
		if i == 0 {
			return k
		}
		i--
	}
	panic("unreachable")
}
