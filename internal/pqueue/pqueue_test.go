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

// Property: a heap kept in a caller's slice by SiftUp and SiftDown alone
// always has its maximum at the root, under pushes (append and sift up),
// root re-keys (overwrite and sift down), and re-keys anywhere followed by
// a rebuild that sifts up each prefix in turn.
func TestQuickSiftsKeepMaxAtRoot(t *testing.T) {
	above := func(a, b float64) bool { return a > b }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var h []float64
		for op := 0; op < 300; op++ {
			switch r.Intn(4) {
			case 0, 1:
				h = append(h, r.Float64())
				SiftUp(h, above)
			case 2:
				if len(h) > 0 {
					h[0] = r.Float64()
					SiftDown(h, above)
				}
			case 3:
				for i := range h {
					if r.Intn(2) == 0 {
						h[i] = r.Float64()
					}
				}
				for i := 2; i <= len(h); i++ {
					SiftUp(h[:i], above)
				}
			}
			for _, x := range h {
				if x > h[0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
