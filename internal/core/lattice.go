package core

// subsetBound is the one part of a tight bound that depends on the access
// kind: t_M, the best bound over PC(M) of a proper subset M (eq. (9), or
// eq. (40) under score access), −∞ when PC(M) is empty.
type subsetBound interface {
	tM(mask int) float64
}

// subsetLattice is what the two tight bounds share: the lattice of proper
// subsets M of the n relations, each identified by its bitmask. The
// threshold is t = max over the M that can still describe an unseen
// combination of t_M (eq. (8)); relation i's potential takes the same
// maximum over the M that leave i out (§3.3). A bounder embeds the lattice,
// which supplies registerExhausted, threshold and potential, and keeps its
// own register and tM. t_M is computed once per register or
// registerExhausted, into ts, and read by every threshold and potential
// call until the next one.
type subsetLattice struct {
	sub       subsetBound
	members   [][]int // members[mask]: the relations in M, ascending
	unseen    [][]int // unseen[mask]: the complement, ascending
	exhausted int     // mask of the relations that ran dry
	// ts[mask] is t_M, or −∞ for an M that cannot describe an unseen
	// combination; stale until threshold or potential refreshes it.
	ts    []float64
	stale bool
}

func newSubsetLattice(n int, sub subsetBound) subsetLattice {
	full := 1 << n
	l := subsetLattice{
		sub:   sub,
		ts:    make([]float64, full-1),
		stale: true,
	}
	// The members and unseen lists are carved from one int slab, since
	// each subset partitions the n relations between the two.
	lists := make([][]int, 2*(full-1))
	l.members, l.unseen = lists[:full-1], lists[full-1:]
	ints := make([]int, (full-1)*n)
	for mask := range l.members {
		m := ints[:0:n]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				m = append(m, i)
			}
		}
		u := ints[len(m):len(m):n]
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				u = append(u, i)
			}
		}
		l.members[mask], l.unseen[mask] = m[:len(m):len(m)], u
		ints = ints[n:]
	}
	return l
}

// completes reports whether M can still describe an unseen combination:
// every relation outside M must be able to supply an unseen tuple.
func (l *subsetLattice) completes(mask int) bool {
	return mask&l.exhausted == l.exhausted
}

func (l *subsetLattice) registerExhausted(ri int) {
	l.exhausted |= 1 << ri
	l.stale = true
}

// refresh recomputes ts once per register or registerExhausted.
func (l *subsetLattice) refresh() {
	if !l.stale {
		return
	}
	for mask := range l.ts {
		v := negInf
		if l.completes(mask) {
			v = l.sub.tM(mask)
		}
		l.ts[mask] = v
	}
	l.stale = false
}

func (l *subsetLattice) threshold() float64 {
	l.refresh()
	t := negInf
	for _, tm := range l.ts {
		if tm > t {
			t = tm
		}
	}
	return t
}

func (l *subsetLattice) potential(ri int) float64 {
	bit := 1 << ri
	if l.exhausted&bit != 0 {
		return negInf
	}
	l.refresh()
	pot := negInf
	for mask, tm := range l.ts {
		if mask&bit == 0 && tm > pot {
			pot = tm
		}
	}
	return pot
}
