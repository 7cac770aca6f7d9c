package pqueue

import (
	"math/rand"
	"sort"
	"testing"
)

func TestMinMaxBasic(t *testing.T) {
	h := NewMinMax(func(a, b int) bool { return a < b })
	if _, ok := h.PeekMin(); ok {
		t.Fatal("PeekMin on empty heap reported ok")
	}
	if _, ok := h.PopMax(); ok {
		t.Fatal("PopMax on empty heap reported ok")
	}
	for _, v := range []int{5, 1, 9, 3, 7, 2, 8} {
		h.Push(v)
	}
	if mn, _ := h.PeekMin(); mn != 1 {
		t.Fatalf("PeekMin = %d, want 1", mn)
	}
	if mx, _ := h.PeekMax(); mx != 9 {
		t.Fatalf("PeekMax = %d, want 9", mx)
	}
	if v, _ := h.PopMax(); v != 9 {
		t.Fatalf("PopMax = %d, want 9", v)
	}
	if v, _ := h.PopMin(); v != 1 {
		t.Fatalf("PopMin = %d, want 1", v)
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d, want 5", h.Len())
	}
}

// TestMinMaxAgainstSort drives random mixed operations and checks every
// pop against a mirrored sorted reference.
func TestMinMaxAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		h := NewMinMax(func(a, b int) bool { return a < b })
		var ref []int
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(4); {
			case r <= 1 || len(ref) == 0:
				v := rng.Intn(1000)
				h.Push(v)
				ref = append(ref, v)
				sort.Ints(ref)
			case r == 2:
				got, ok := h.PopMin()
				if !ok || got != ref[0] {
					t.Fatalf("trial %d op %d: PopMin = %d,%v, want %d", trial, op, got, ok, ref[0])
				}
				ref = ref[1:]
			default:
				got, ok := h.PopMax()
				if !ok || got != ref[len(ref)-1] {
					t.Fatalf("trial %d op %d: PopMax = %d,%v, want %d", trial, op, got, ok, ref[len(ref)-1])
				}
				ref = ref[:len(ref)-1]
			}
			if h.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, h.Len(), len(ref))
			}
			if len(ref) > 0 {
				if mn, _ := h.PeekMin(); mn != ref[0] {
					t.Fatalf("trial %d op %d: PeekMin = %d, want %d", trial, op, mn, ref[0])
				}
				if mx, _ := h.PeekMax(); mx != ref[len(ref)-1] {
					t.Fatalf("trial %d op %d: PeekMax = %d, want %d", trial, op, mx, ref[len(ref)-1])
				}
			}
		}
	}
}

// TestMinMaxDuplicates exercises heavy duplication, where level-order
// invariants are easiest to violate.
func TestMinMaxDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewMinMax(func(a, b int) bool { return a < b })
	var ref []int
	for i := 0; i < 2000; i++ {
		v := rng.Intn(4)
		h.Push(v)
		ref = append(ref, v)
	}
	sort.Ints(ref)
	for lo, hi := 0, len(ref)-1; lo <= hi; {
		if lo%2 == 0 {
			got, _ := h.PopMin()
			if got != ref[lo] {
				t.Fatalf("PopMin = %d, want %d", got, ref[lo])
			}
			lo++
		} else {
			got, _ := h.PopMax()
			if got != ref[hi] {
				t.Fatalf("PopMax = %d, want %d", got, ref[hi])
			}
			hi--
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
}
