package core

import "repro/internal/relation"

// cornerBounder implements the HRJN-style corner bound for both access
// kinds (paper eq. (3)-(5) for distance access, eq. (36)-(38) for score
// access). It is correct for any monotone aggregation but not tight, so
// algorithms built on it are not instance-optimal (Theorems 3.1 and C.1).
//
// Each cap is a solo bound read at a corner: the aggregation is a sum of
// per-tuple terms and the centroid term only subtracts, so relation j's
// caps are SoloBound at the best score and distance it has left. They
// change only when the relation is pulled — the seen cap on its first
// pull, the unseen cap on every pull — so register refreshes the pulled
// relation's, and a read of the bound only sums cached values.
type cornerBounder struct {
	e      *Engine
	seen   []float64 // seen[j] is seenCap of R_j
	unseen []float64 // unseen[j] is unseenCap of R_j
}

func newCornerBounder(e *Engine) *cornerBounder {
	fs := make([]float64, 2*e.n)
	c := &cornerBounder{e: e, seen: fs[:e.n:e.n], unseen: fs[e.n:]}
	for j, rs := range e.rels {
		c.seen[j] = c.seenCap(rs)
		c.unseen[j] = c.unseenCap(rs)
	}
	return c
}

func (c *cornerBounder) register(ri int) {
	rs := c.e.rels[ri]
	if rs.depth() == 1 {
		c.seen[ri] = c.seenCap(rs)
	}
	c.unseen[ri] = c.unseenCap(rs)
}

func (c *cornerBounder) registerExhausted(int) {}

// threshold is t_c = max_i t_i over relations that can still produce an
// unseen tuple.
func (c *cornerBounder) threshold() float64 {
	t := negInf
	for i, rs := range c.e.rels {
		if rs.exhausted {
			continue
		}
		if ti := c.potential(i); ti > t {
			t = ti
		}
	}
	return t
}

// potential computes t_i = S̄_1 + … + S_i + … + S̄_n, summed in relation
// order: the bound on combinations whose unseen member comes from
// relation i.
func (c *cornerBounder) potential(i int) float64 {
	if c.e.rels[i].exhausted {
		return negInf
	}
	var t float64
	for j, s := range c.seen {
		if j == i {
			s = c.unseen[i]
		}
		t += s
	}
	return t
}

// seenCap is S̄_j: the best proximity weighted score any tuple of R_j can
// attain, anchored at the first accessed tuple.
func (c *cornerBounder) seenCap(rs *relState) float64 {
	if c.e.kind == relation.DistanceAccess {
		return c.e.opts.Agg.Solo(rs.maxTerm, rs.first)
	}
	return rs.firstTerm
}

// unseenCap is S_i: the best proximity weighted score an unseen tuple of
// R_i can attain, anchored at the last accessed tuple.
func (c *cornerBounder) unseenCap(rs *relState) float64 {
	if c.e.kind == relation.DistanceAccess {
		return c.e.opts.Agg.Solo(rs.maxTerm, rs.last)
	}
	return rs.lastTerm
}
