package core

// combArena stores the payload of buffered combinations in one flat rank
// slab with a freelist of recycled slots. A buffered combination is fully
// identified by its rank vector — the engine retains every pulled tuple
// in its relation prefixes, so tuples are reconstructed on emission as
// rels[i].tuples[rank[i]] instead of being copied per combination. One
// slot therefore costs n int32s instead of the two heap-allocated slices
// (tuples + ranks) the hot path used to pay per formed combination, and
// evicting a combination returns its slot for reuse, so batch runs touch
// a bounded working set no matter how many combinations stream through
// the buffer.
type combArena struct {
	n     int
	ranks []int32 // slot s occupies ranks[s*n : (s+1)*n]
	free  []int32
}

// combRef is an arena-backed combination handle: the aggregate score
// inline (every comparison needs it), the rank payload in the arena.
type combRef struct {
	slot  int32
	score float64
}

func newCombArena(n int) *combArena {
	return &combArena{n: n}
}

// alloc copies ranks into a fresh or recycled slot and returns its index.
func (a *combArena) alloc(ranks []int32) int32 {
	var s int32
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free = a.free[:n-1]
		copy(a.ranks[int(s)*a.n:(int(s)+1)*a.n], ranks)
		return s
	}
	s = int32(len(a.ranks) / a.n)
	a.ranks = append(a.ranks, ranks...)
	return s
}

// release returns slot s to the freelist.
func (a *combArena) release(s int32) {
	a.free = append(a.free, s)
}

// ranksAt returns the rank vector stored in slot s. The slice aliases the
// slab: valid until the slot is released.
func (a *combArena) ranksAt(s int32) []int32 {
	return a.ranks[int(s)*a.n : (int(s)+1)*a.n]
}

// lexLess32 is lexicographic order on rank vectors.
func lexLess32(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// before is the one result order: score descending, ties by ascending
// lexicographic ranks. (score, ranks) keys are unique, so it is a total
// order — of the window, the spill heap, every segment file and every
// stream of results.
func before(score float64, ranks []int32, thanScore float64, thanRanks []int32) bool {
	if score != thanScore {
		return score > thanScore
	}
	return lexLess32(ranks, thanRanks)
}
