package core

import (
	"repro/internal/agg"
	"repro/internal/pqueue"
	"repro/internal/qp"
	"repro/internal/relation"
	"repro/internal/vec"
)

// tightDistBounder implements the tight bounding scheme for distance-based
// access (paper §3.2). For every proper subset M of relations it tracks
// the partial combinations PC(M); the bound t(τ) of each partial is the
// optimum of paper problem (12), solved through the collinearity reduction
// of Theorem 3.4 and the 1-D QP (14). t_M = max t(τ) and the threshold is
// t = max_M t_M (eq. (8)-(9)).
//
// Bound maintenance is lazy by default: δ_i only grows, so cached bounds
// only shrink on recomputation and a max-heap refreshed from the top gives
// the exact t_M while recomputing only candidates that could be maximal.
// Options.EagerBounds reproduces the paper's Algorithm 2 schedule instead
// (recompute every affected partial on every pull).
// There is no dominance test (paper §3.2.2): a dominated partial never stays on the heap top, so laziness already skips it (EXPERIMENTS.md, "Dominance pruning: not reproduced").
//
// Partial state is arena'd: the partials of a subset live in one value
// slice (the heap id is the index), and their vector payloads — seen
// tuples, centroid — are views into per-subset slabs appended in id
// order. Growing a slab relocates future segments only; committed views
// keep pointing at the retired array, which is written exactly once at
// partial creation and read-only afterwards, so no view ever dangles.
// Bound recomputation runs through per-bounder scratch buffers and
// qp.Eval, making the steady-state hot path allocation-free.
type tightDistBounder struct {
	e             *Engine
	quad          agg.Quadratic
	ws, wq, wmu   float64
	subsets       []*subsetState
	exhaustedMask int
	baseDir       vec.Vector // fallback ray direction when ν = q or m = 0
	// capMax[j] is w_s·T(σ_max) of R_j: an unseen member's score term,
	// constant for the run.
	capMax []float64
	// computeBound scratch, reused across every bound evaluation.
	dirBuf     vec.Vector
	fixedBuf   []float64
	lowerBuf   []float64
	ptsBuf     []vec.Vector
	unseenSlab []float64 // reconstruction points, dim floats per unseen
	muBuf      vec.Vector
	qpScr      qp.Scratch
}

// subsetState holds PC(M) for one proper subset M (identified by bitmask).
type subsetState struct {
	mask       int
	members    []int                 // relations in M, ascending
	unseen     []int                 // complement, ascending
	partials   []distPartial         // arena: index = partial id = heap id
	xsSlab     []vec.Vector          // len(members) tuple views per partial, id order
	nuSlab     []float64             // dim floats per partial: centroid storage
	heap       pqueue.Dense[float64] // max-heap: partial id -> cached bound
	deltaEpoch int64                 // pull counter when an unseen δ last changed
}

// distPartial is one partial combination τ ∈ PC(M). The slice fields are
// views into the owning subset's slabs.
type distPartial struct {
	id    int
	xs    []vec.Vector // seen feature vectors, member order
	sumT  float64      // Σ w_s·T(σ) over seen tuples
	nu    vec.Vector   // centroid of seen tuples (nil when m = 0)
	bound float64      // cached t(τ)
	epoch int64        // pull counter at last bound computation
}

// growFloats extends s to length n, doubling capacity on reallocation
// (with a floor, so the first partials of a subset do not reallocate
// once each) — slab growth stays amortized O(1) per appended element.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * n
	if c < 256 {
		c = 256
	}
	ns := make([]float64, n, c)
	copy(ns, s)
	return ns
}

func newTightDistBounder(e *Engine, quad agg.Quadratic) *tightDistBounder {
	ws, wq, wmu := quad.Weights()
	b := &tightDistBounder{
		e:    e,
		quad: quad,
		ws:   ws, wq: wq, wmu: wmu,
		ptsBuf: make([]vec.Vector, 0, e.n),
	}
	// All float scratch — ray directions, per-relation columns and the
	// unseen reconstruction points — comes from one slab.
	fs := make([]float64, 3*e.dim+3*e.n+e.n*e.dim)
	take := func(k int) []float64 { s := fs[:k:k]; fs = fs[k:]; return s }
	b.baseDir = vec.Vector(take(e.dim))
	b.dirBuf = vec.Vector(take(e.dim))
	b.muBuf = vec.Vector(take(e.dim))
	b.fixedBuf = take(e.n)
	b.lowerBuf = take(e.n)
	b.capMax = take(e.n)
	b.unseenSlab = take(e.n * e.dim)
	b.baseDir[0] = 1
	for j, rs := range e.rels {
		b.capMax[j] = ws * quad.TransformScore(rs.maxScore)
	}
	full := 1 << e.n
	// Subset states are one backing array behind the by-mask pointer
	// index, and the members/unseen lists are carved from one int slab
	// (each subset partitions the n relations between the two).
	b.subsets = make([]*subsetState, full-1)
	states := make([]subsetState, full-1)
	ints := make([]int, (full-1)*e.n)
	for mask := 0; mask < full-1; mask++ {
		ss := &states[mask]
		ss.mask = mask
		ss.heap = pqueue.MakeDense[float64](func(a, c float64) bool { return a > c })
		k := 0
		for i := 0; i < e.n; i++ {
			if mask&(1<<i) != 0 {
				k++
			}
		}
		ss.members = ints[:0:k]
		ss.unseen = ints[k : k : k+(e.n-k)]
		ints = ints[e.n:]
		for i := 0; i < e.n; i++ {
			if mask&(1<<i) != 0 {
				ss.members = append(ss.members, i)
			} else {
				ss.unseen = append(ss.unseen, i)
			}
		}
		b.subsets[mask] = ss
	}
	// The empty partial ⟨⟩ exists from the start; its bound is refreshed on
	// first use (epoch -1 forces a recomputation).
	b.subsets[0].partials = []distPartial{{id: 0, bound: posInf, epoch: -1}}
	b.subsets[0].heap.Push(0, posInf)
	e.stats.PartialsTracked++
	return b
}

func (b *tightDistBounder) register(ri int) {
	epoch := b.e.pulls
	rs := b.e.rels[ri]
	tau := rs.tuples[len(rs.tuples)-1]

	for _, ss := range b.subsets {
		if ss.mask&(1<<ri) == 0 {
			// δ_ri tightened: every bound in this subset is now stale.
			ss.deltaEpoch = epoch
			continue
		}
		b.extendSubset(ss, ri, tau)
	}
	if b.e.opts.EagerBounds {
		// Paper Algorithm 2: recompute every stale affected partial now.
		for _, ss := range b.subsets {
			if ss.mask&(1<<ri) != 0 || !b.valid(ss) {
				continue
			}
			for id := range ss.partials {
				p := &ss.partials[id]
				if p.epoch >= ss.deltaEpoch {
					continue
				}
				b.computeBound(ss, p)
				ss.heap.Update(p.id, p.bound)
			}
		}
	}
}

// extendSubset adds the partial combinations of M that use the new tuple:
// PC(M − {ri}) × {τ}. Each new partial appends exactly len(members) tuple
// views and one centroid to the subset slabs, so segment offsets are a
// multiple of the id.
func (b *tightDistBounder) extendSubset(ss *subsetState, ri int, tau relation.Tuple) {
	baseMask := ss.mask &^ (1 << ri)
	base := b.subsets[baseMask]
	// Position of ri among ss.members, to keep xs in member order.
	pos := 0
	for pos < len(ss.members) && ss.members[pos] != ri {
		pos++
	}
	m := len(ss.members)
	dim := b.e.dim
	tauT := b.ws * b.quad.TransformScore(tau.Score)
	if cap(ss.partials) == 0 {
		// First extension of this subset: reserve room for a batch of
		// partials so the arena and view slab are not regrown once per
		// early id.
		const seed = 64
		ss.partials = make([]distPartial, 0, seed)
		ss.xsSlab = make([]vec.Vector, 0, seed*m)
		ss.heap.Grow(seed)
	}
	for bi := range base.partials {
		bp := &base.partials[bi]
		id := len(ss.partials)
		off := id * m
		ss.xsSlab = append(ss.xsSlab, bp.xs[:pos]...)
		ss.xsSlab = append(ss.xsSlab, tau.Vec)
		ss.xsSlab = append(ss.xsSlab, bp.xs[pos:]...)
		xs := ss.xsSlab[off : off+m : off+m]
		ss.nuSlab = growFloats(ss.nuSlab, (id+1)*dim)
		nu := vec.MeanInto(vec.Vector(ss.nuSlab[id*dim:(id+1)*dim]), xs)
		p := distPartial{id: id, xs: xs, sumT: bp.sumT + tauT, nu: nu}
		b.computeBound(ss, &p)
		ss.partials = append(ss.partials, p)
		ss.heap.Push(id, p.bound)
		b.e.stats.PartialsTracked++
	}
}

func (b *tightDistBounder) registerExhausted(ri int) {
	b.exhaustedMask |= 1 << ri
}

// valid reports whether subset M can still describe an unseen combination:
// every unseen relation must be unexhausted, and PC(M) non-empty.
func (b *tightDistBounder) valid(ss *subsetState) bool {
	if ss.mask&b.exhaustedMask != b.exhaustedMask {
		return false // some exhausted relation would have to supply an unseen tuple
	}
	return ss.heap.Len() > 0
}

func (b *tightDistBounder) threshold() float64 {
	t := negInf
	for _, ss := range b.subsets {
		if !b.valid(ss) {
			continue
		}
		if tm := b.tM(ss); tm > t {
			t = tm
		}
	}
	return t
}

func (b *tightDistBounder) potential(ri int) float64 {
	if b.e.rels[ri].exhausted {
		return negInf
	}
	pot := negInf
	bit := 1 << ri
	for _, ss := range b.subsets {
		if ss.mask&bit != 0 || !b.valid(ss) {
			continue
		}
		if tm := b.tM(ss); tm > pot {
			pot = tm
		}
	}
	return pot
}

// tM returns max{t(τ) : τ ∈ PC(M)} with lazy top-refresh: cached bounds
// are upper bounds of current ones (δ only grows), so once the heap top is
// fresh it dominates every other cached — hence every other true — bound.
func (b *tightDistBounder) tM(ss *subsetState) float64 {
	for {
		id, cached, ok := ss.heap.Peek()
		if !ok {
			return negInf
		}
		p := &ss.partials[id]
		if p.epoch >= ss.deltaEpoch {
			return cached
		}
		b.computeBound(ss, p)
		ss.heap.Update(id, p.bound)
	}
}

// computeBound solves problem (12) for partial p via the Theorem 3.4
// reduction and stores the resulting t(τ). All working storage comes from
// the bounder scratch; the evaluation is bit-identical to the allocating
// formulation it replaced (SubDot ≡ Sub+Dot, ScaleInPlace ≡ Scale,
// AddScaledInto ≡ AddScaled, MeanInto ≡ Mean — each replays the same
// floating-point operation sequence).
func (b *tightDistBounder) computeBound(ss *subsetState, p *distPartial) {
	e := b.e
	m := len(ss.members)
	u := len(ss.unseen)

	// Ray direction from q through the partial centroid ν. When ν = q (or
	// m = 0) every direction is optimal for the unseen placement and the
	// fixed projections' sum (the only quantity the 1-D argmin depends on)
	// is zero either way, so an arbitrary axis is exact.
	dir := b.baseDir
	if m > 0 {
		d := vec.SubInto(b.dirBuf, p.nu, e.q)
		if nrm := d.Norm(); nrm >= 1e-300 {
			dir = d.ScaleInPlace(1 / nrm)
		}
	}
	fixed := b.fixedBuf[:m]
	for k, x := range p.xs {
		fixed[k] = vec.SubDot(x, e.q, dir)
	}
	lower := b.lowerBuf[:u]
	for k, j := range ss.unseen {
		lower[k] = e.rels[j].lastDist()
	}
	sol, err := qp.Eval(b.wq, b.wmu, fixed, lower, &b.qpScr)
	if err != nil {
		// Weights were validated at aggregation construction; treat any
		// residual failure as "no pruning" rather than wrong pruning.
		p.bound = posInf
		p.epoch = e.pulls
		return
	}
	e.stats.QPSolves++

	// Reconstruct the optimal unseen locations (eq. (15)) and evaluate the
	// true objective (12) there; this restores the perpendicular residual
	// terms the 1-D form drops.
	pts := b.ptsBuf[:0]
	pts = append(pts, p.xs...)
	for k := range ss.unseen {
		pt := vec.Vector(b.unseenSlab[k*e.dim : (k+1)*e.dim])
		pts = append(pts, vec.AddScaledInto(pt, e.q, sol.Unseen[k], dir))
	}
	val := p.sumT
	for _, j := range ss.unseen {
		val += b.capMax[j]
	}
	mu := vec.MeanInto(b.muBuf, pts)
	for _, pt := range pts {
		val -= b.wq*pt.Dist2(e.q) + b.wmu*pt.Dist2(mu)
	}
	p.bound = val
	p.epoch = e.pulls
}
