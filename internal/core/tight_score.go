package core

import "repro/internal/vec"

// tightScoreBounder implements the tight bound for score-based access
// (paper Appendix C). The completion problem (39) is unconstrained in the
// unseen locations and its optimum has the closed form of eq. (41):
//
//	y* = q + (ν−q)·m·w_µ / (m·w_µ + n·w_q)
//
// Within a subset M the bound of a partial splits into a static geometric
// part and the additive unseen score caps Σ w_s·T(σ(R_i[p_i])); the caps
// shrink uniformly for every partial of M as scores descend, so only the
// best geometric value per subset must be retained (Algorithm 3's
// τ_best^M bookkeeping) — no partial list is stored at all.
//
// A pull pays only for what it changed. register reads the pulled
// tuple's score term w_s·T(σ) = SoloBound(σ, 0), which the engine took
// once for the pull, as the relation's new unseen cap, and
// marks the lattice's t_M values stale; the next threshold recomputes
// them into ts, which potential then reads.
// The walk over the new partials PC(M−{i}) × {τ} is branch-and-bound.
// A partial's geo starts from acc, its members' solo terms folded (τ's
// first, then the others in member order), and only subtracts
// non-negative terms from it, so geo ≤ acc bit for bit; a partial, or a
// whole subtree of them, whose acc — or, for a subtree, the fold with
// each inner level's soloMax — is below bestGeo is never evaluated.
// bestGeo is a maximum, so it is bit-equal to the one a walk over every
// partial would keep.
//
// The geometric evaluations run through per-bounder scratch (centroid,
// optimal completion point, reconstruction list), so the steady state
// allocates nothing per partial.
type tightScoreBounder struct {
	subsetLattice
	e       *Engine
	wq, wmu float64
	// bestGeo[mask] is the best geometric bound part over PC(M), −∞ while
	// PC(M) is empty.
	bestGeo []float64
	// caps[j] is w_s·T(σ) = SoloBound(σ, 0) of R_j's last pulled tuple, or
	// of σ_max before its first pull: the unseen cap of eq. (40).
	caps []float64
	// geo scratch, reused across every geometric evaluation.
	nuBuf    vec.Vector
	diffBuf  vec.Vector
	ystarBuf vec.Vector
	muBuf    vec.Vector
	ptsBuf   []vec.Vector
	walk     scoreWalk
}

// scoreWalk is extendSubset's state for one subset (single-threaded
// recursion scratch, so the walk allocates nothing).
type scoreWalk struct {
	mask   int
	others []int        // M − {i} in member order: the levels of the walk
	xs     []vec.Vector // the partial being formed, member order
	pos    int          // position of the pulled relation within xs
}

func newTightScoreBounder(e *Engine) *tightScoreBounder {
	full := 1 << e.n
	// Every float the bounder owns — the per-relation and per-subset
	// columns and the geo scratch — is carved from one slab.
	fs := make([]float64, e.n+(full-1)+4*e.dim)
	take := func(k int) []float64 { s := fs[:k:k]; fs = fs[k:]; return s }
	b := &tightScoreBounder{
		e:        e,
		wq:       e.opts.Agg.W.Wq,
		wmu:      e.opts.Agg.W.Wmu,
		caps:     take(e.n),
		bestGeo:  take(full - 1),
		nuBuf:    take(e.dim),
		diffBuf:  take(e.dim),
		ystarBuf: take(e.dim),
		muBuf:    take(e.dim),
		ptsBuf:   make([]vec.Vector, 0, e.n),
		walk: scoreWalk{
			others: make([]int, 0, e.n),
			xs:     make([]vec.Vector, e.n),
		},
	}
	b.subsetLattice = newSubsetLattice(e.n, b)
	for j, rs := range e.rels {
		b.caps[j] = rs.maxTerm
	}
	// The empty partial: all n points at the optimum y* = q, zero distance
	// penalties, zero seen score.
	b.bestGeo[0] = 0
	for mask := 1; mask < full-1; mask++ {
		b.bestGeo[mask] = negInf
	}
	e.stats.PartialsTracked++
	return b
}

func (b *tightScoreBounder) register(ri int) {
	b.caps[ri] = b.e.rels[ri].lastTerm
	b.stale = true
	for mask := range b.bestGeo {
		if mask&(1<<ri) != 0 {
			b.extendSubset(mask, ri)
		}
	}
}

// extendSubset raises bestGeo[mask] to the best geometric bound among the
// new partials PC(M−{ri}) × {τ}, τ being ri's last pulled tuple.
func (b *tightScoreBounder) extendSubset(mask, ri int) {
	w := &b.walk
	w.mask = mask
	w.others = w.others[:0]
	for k, j := range b.members[mask] {
		if j == ri {
			w.pos = k
			continue
		}
		if b.e.rels[j].depth() == 0 {
			return // PC(M − {ri}) is empty
		}
		w.others = append(w.others, j)
	}
	rs := b.e.rels[ri]
	last := rs.depth() - 1
	w.xs[w.pos] = rs.tuples[last].Vec
	if len(w.others) == 0 {
		// M = {ri}: the one new partial is ⟨τ⟩.
		b.e.stats.PartialsTracked++
		if rs.solo[last] < b.bestGeo[mask] {
			return
		}
	}
	b.extend(0, rs.solo[last])
}

// extend walks level oi of the product, carrying acc, the solo terms of
// τ and of the tuples fixed so far, folded in that order. Each level is
// walked by descending solo, so the first candidate whose reach — acc,
// its solo, then each inner level's soloMax, folded in order — falls
// below bestGeo ends the level: neither it nor anything behind it, nor
// any partial below them, can raise bestGeo. PartialsTracked counts the
// partials the walk reaches, each then either solved or rejected on its
// own reach.
func (b *tightScoreBounder) extend(oi int, acc float64) {
	w := &b.walk
	if oi == len(w.others) {
		if g := b.geo(w.xs[:len(w.others)+1], acc); g > b.bestGeo[w.mask] {
			b.bestGeo[w.mask] = g
		}
		return
	}
	rs := b.e.rels[w.others[oi]]
	leaf := oi == len(w.others)-1
	xi := oi
	if oi >= w.pos {
		xi = oi + 1
	}
	rs.walk()
	for r, ok := rs.next(); ok; r, ok = rs.next() {
		if leaf {
			b.e.stats.PartialsTracked++
		}
		v := acc + rs.solo[r]
		reach := v
		for _, j := range w.others[oi+1:] {
			reach += b.e.rels[j].soloMax
		}
		if reach < b.bestGeo[w.mask] {
			return
		}
		w.xs[xi] = rs.tuples[r].Vec
		b.extend(oi+1, v)
	}
}

// geo evaluates the geometric part of the bound: acc, the partial's solo
// terms folded, less the query terms of the unseen points at the
// closed-form optimal completion y*, then every point's centroid term.
// The scratch-based evaluation replays the allocating formulation's
// floating-point operation sequence exactly (MeanInto ≡ Mean,
// AddScaledInto ≡ AddScaled over SubInto ≡ Sub).
func (b *tightScoreBounder) geo(xs []vec.Vector, acc float64) float64 {
	e := b.e
	m := len(xs)
	n := e.n
	u := n - m

	ystar := e.q
	if m > 0 && b.wmu != 0 {
		nu := vec.MeanInto(b.nuBuf, xs)
		denom := float64(m)*b.wmu + float64(n)*b.wq
		if denom > 0 {
			diff := vec.SubInto(b.diffBuf, nu, e.q)
			ystar = vec.AddScaledInto(b.ystarBuf, e.q, float64(m)*b.wmu/denom, diff)
		}
	}
	pts := b.ptsBuf[:0]
	pts = append(pts, xs...)
	for k := 0; k < u; k++ {
		pts = append(pts, ystar)
	}
	mu := vec.MeanInto(b.muBuf, pts)
	val := acc
	for k := 0; k < u; k++ {
		val -= b.wq * ystar.Dist2(e.q)
	}
	for _, pt := range pts {
		val -= b.wmu * pt.Dist2(mu)
	}
	e.stats.QPSolves++
	return val
}

// tM is the subset bound: best geometric part plus the current unseen
// score caps (eq. (40) with the Algorithm 3 incremental bookkeeping); −∞
// while PC(M) is empty, because bestGeo is.
func (b *tightScoreBounder) tM(mask int) float64 {
	v := b.bestGeo[mask]
	for _, j := range b.unseen[mask] {
		v += b.caps[j]
	}
	return v
}
