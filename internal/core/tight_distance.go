package core

import (
	"math"

	"repro/internal/pqueue"
	"repro/internal/qp"
	"repro/internal/vec"
)

// tightDistBounder implements the tight bounding scheme for distance-based
// access (paper §3.2). For every proper subset M of relations it tracks
// the partial combinations PC(M); the bound t(τ) of each partial is the
// optimum of paper problem (12), solved through the collinearity reduction
// of Theorem 3.4 and the 1-D QP (14). tM is t_M = max t(τ) (eq. (9));
// the embedded subsetLattice takes the threshold t = max_M t_M (eq. (8)).
//
// Bound maintenance is lazy by default: δ_i only grows, so cached bounds
// only shrink on recomputation and a max-heap refreshed from the top gives
// the exact t_M while recomputing only candidates that could be maximal.
// Options.EagerBounds reproduces the paper's Algorithm 2 schedule instead
// (recompute every affected partial on every pull).
// There is no dominance test (paper §3.2.2): a dominated partial never stays on the heap top, so laziness already skips it (EXPERIMENTS.md, "Dominance pruning: not reproduced").
//
// A partial is named by its ranks, as a buffered combination is: the
// ranks of a subset's partials live in one per-subset combArena slot each
// (slot = partial id), beside a value slice of solo and epoch; the cached
// bound lives only in the partial's heap entry. The lazy schedule re-keys
// only a heap's root, so a heap is a plain slice of (bound, id) entries
// on pqueue's sifts, with no position table. computeBound rebuilds the
// seen vectors and ν from the engine's prefixes into scratch when it
// solves, and every bound evaluation runs through per-bounder scratch
// buffers and qp.Eval, making the steady-state hot path allocation-free.
type tightDistBounder struct {
	subsetLattice
	e       *Engine
	wq, wmu float64
	subsets []subsetState // by mask
	baseDir vec.Vector    // fallback ray direction when ν = q or m = 0
	// Scratch: the rank vector of a partial being formed, and for
	// computeBound the seen vectors followed by the reconstructed unseen
	// points.
	rankBuf    []int32
	dirBuf     vec.Vector
	fixedBuf   []float64
	lowerBuf   []float64
	ptsBuf     []vec.Vector
	unseenSlab []float64 // reconstruction points, dim floats per unseen
	nuBuf      vec.Vector
	muBuf      vec.Vector
	qpScr      qp.Scratch
}

// subsetState holds PC(M) for one proper subset M.
type subsetState struct {
	partials   []distPartial // index = partial id
	ranks      combArena     // slot id: the partial's ranks, member order
	heap       []boundItem   // max-heap of every partial's cached bound
	deltaEpoch int           // SumDepths when an unseen δ last changed
}

// distPartial is one partial combination τ ∈ PC(M); its ranks are slot id
// of the owning subset's arena, its cached bound t(τ) is in its heap entry.
type distPartial struct {
	solo  float64 // its base partial's solo plus its newest tuple's solo term
	epoch int     // SumDepths at last bound computation
}

// boundItem is a subset heap entry: partial id's cached bound t(τ).
type boundItem struct {
	bound float64
	id    int32
}

// boundAbove orders a subset heap: the larger cached bound first.
func boundAbove(a, c boundItem) bool { return a.bound > c.bound }

func newTightDistBounder(e *Engine) *tightDistBounder {
	b := &tightDistBounder{
		e:       e,
		wq:      e.opts.Agg.W.Wq,
		wmu:     e.opts.Agg.W.Wmu,
		rankBuf: make([]int32, e.n),
		ptsBuf:  make([]vec.Vector, e.n),
	}
	b.subsetLattice = newSubsetLattice(e.n, b)
	// All float scratch — ray directions, per-relation columns and the
	// unseen reconstruction points — comes from one slab.
	fs := make([]float64, 4*e.dim+2*e.n+e.n*e.dim)
	take := func(k int) []float64 { s := fs[:k:k]; fs = fs[k:]; return s }
	b.baseDir = vec.Vector(take(e.dim))
	b.dirBuf = vec.Vector(take(e.dim))
	b.nuBuf = vec.Vector(take(e.dim))
	b.muBuf = vec.Vector(take(e.dim))
	b.fixedBuf = take(e.n)
	b.lowerBuf = take(e.n)
	b.unseenSlab = take(e.n * e.dim)
	b.baseDir[0] = 1
	b.subsets = make([]subsetState, len(b.members))
	for mask := range b.subsets {
		b.subsets[mask].ranks.n = len(b.members[mask])
	}
	// The empty partial ⟨⟩ exists from the start; its bound is refreshed on
	// first use (epoch -1 forces a recomputation).
	b.subsets[0].partials = []distPartial{{epoch: -1}}
	b.subsets[0].heap = []boundItem{{bound: posInf}}
	e.stats.PartialsTracked++
	return b
}

func (b *tightDistBounder) register(ri int) {
	epoch := b.e.stats.SumDepths
	bit := 1 << ri
	b.stale = true
	for mask := range b.subsets {
		if mask&bit == 0 {
			// δ_ri tightened: every bound in this subset is now stale.
			b.subsets[mask].deltaEpoch = epoch
			continue
		}
		b.extendSubset(mask, ri)
	}
	if b.e.opts.EagerBounds {
		// Paper Algorithm 2: recompute every stale affected partial now,
		// in place, then restore each heap's order.
		for mask := range b.subsets {
			if mask&bit != 0 || !b.completes(mask) {
				continue
			}
			ss := &b.subsets[mask]
			for i := range ss.heap {
				if it := &ss.heap[i]; ss.partials[it.id].epoch < ss.deltaEpoch {
					ss.partials[it.id].epoch = epoch
					it.bound = b.computeBound(mask, int(it.id))
				}
			}
			for i := 2; i <= len(ss.heap); i++ {
				pqueue.SiftUp(ss.heap[:i], boundAbove)
			}
		}
	}
}

// extendSubset adds the partial combinations of M that use ri's last
// pulled tuple τ: PC(M − {ri}) × {τ}, each the ranks of its base partial
// with τ's rank spliced in at ri's member position.
func (b *tightDistBounder) extendSubset(mask, ri int) {
	ss := &b.subsets[mask]
	base := &b.subsets[mask&^(1<<ri)]
	members := b.members[mask]
	pos := 0
	for members[pos] != ri {
		pos++
	}
	rs := b.e.rels[ri]
	tauRank := int32(rs.depth() - 1)
	tauSolo := rs.solo[tauRank]
	if cap(ss.partials) == 0 && len(base.partials) > 0 {
		// First extension of this subset: reserve room for a batch of
		// partials so the arena and heap are not regrown once per early id.
		const seed = 64
		ss.partials = make([]distPartial, 0, seed)
		ss.ranks.ranks = make([]int32, 0, seed*len(members))
		ss.heap = make([]boundItem, 0, seed)
	}
	rk := b.rankBuf[:len(members)]
	for bi := range base.partials {
		br := base.ranks.ranksAt(int32(bi))
		copy(rk, br[:pos])
		rk[pos] = tauRank
		copy(rk[pos+1:], br[pos:])
		id := ss.ranks.alloc(rk)
		ss.partials = append(ss.partials, distPartial{solo: base.partials[bi].solo + tauSolo, epoch: b.e.stats.SumDepths})
		ss.heap = append(ss.heap, boundItem{b.computeBound(mask, int(id)), id})
		pqueue.SiftUp(ss.heap, boundAbove)
		b.e.stats.PartialsTracked++
	}
}

// tM returns max{t(τ) : τ ∈ PC(M)} with lazy top-refresh: cached bounds
// are upper bounds of current ones (δ only grows), so once the heap top is
// fresh it dominates every other cached — hence every other true — bound.
// A stale top is re-solved in place and sifted down.
func (b *tightDistBounder) tM(mask int) float64 {
	ss := &b.subsets[mask]
	for len(ss.heap) > 0 {
		top := &ss.heap[0]
		if ss.partials[top.id].epoch >= ss.deltaEpoch {
			return top.bound
		}
		ss.partials[top.id].epoch = b.e.stats.SumDepths
		top.bound = b.computeBound(mask, int(top.id))
		pqueue.SiftDown(ss.heap, boundAbove)
	}
	return negInf
}

// seen rebuilds partial id of M from the engine's prefixes into scratch:
// its seen vectors in member order and their centroid ν (nil when m = 0).
// Both alias scratch: valid until the next call.
func (b *tightDistBounder) seen(mask, id int) (xs []vec.Vector, nu vec.Vector) {
	members := b.members[mask]
	xs = b.ptsBuf[:len(members)]
	for k, r := range b.subsets[mask].ranks.ranksAt(int32(id)) {
		xs[k] = b.e.rels[members[k]].tuples[r].Vec
	}
	if len(xs) > 0 {
		nu = vec.MeanInto(b.nuBuf, xs)
	}
	return xs, nu
}

// computeBound solves problem (12) for partial id of M via the Theorem 3.4
// reduction and returns t(τ): the partial's solo, plus SoloBound(σ_max_j,
// ‖y_j−q‖²) for each reconstructed unseen point y_j, less every point's
// centroid term. All working storage comes from the bounder
// scratch; the evaluation is bit-identical to the allocating formulation
// it replaced (SubDot ≡ Sub+Dot, ScaleInPlace ≡ Scale, AddScaledInto ≡
// AddScaled, MeanInto ≡ Mean — each replays the same floating-point
// operation sequence).
func (b *tightDistBounder) computeBound(mask, id int) float64 {
	e := b.e
	xs, nu := b.seen(mask, id)
	unseen := b.unseen[mask]

	// Ray direction from q through the partial centroid ν. When ν = q (or
	// m = 0) every direction is optimal for the unseen placement and the
	// fixed projections' sum (the only quantity the 1-D argmin depends on)
	// is zero either way, so an arbitrary axis is exact.
	dir := b.baseDir
	if nu != nil {
		d := vec.SubInto(b.dirBuf, nu, e.q)
		if nrm := d.Norm(); nrm >= 1e-300 {
			dir = d.ScaleInPlace(1 / nrm)
		}
	}
	fixed := b.fixedBuf[:len(xs)]
	for k, x := range xs {
		fixed[k] = vec.SubDot(x, e.q, dir)
	}
	// The 1-D problem's constraints are radii: the engine's one root.
	lower := b.lowerBuf[:len(unseen)]
	for k, j := range unseen {
		lower[k] = math.Sqrt(e.rels[j].last)
	}
	sol, err := qp.Eval(b.wq, b.wmu, fixed, lower, &b.qpScr)
	if err != nil {
		// Weights were validated at aggregation construction; treat any
		// residual failure as "no pruning" rather than wrong pruning.
		return posInf
	}
	e.stats.QPSolves++

	// Reconstruct the optimal unseen locations (eq. (15)) behind the seen
	// vectors and evaluate the true objective (12) there; this restores
	// the perpendicular residual terms the 1-D form drops.
	pts := xs
	val := b.subsets[mask].partials[id].solo
	for k, j := range unseen {
		pt := vec.AddScaledInto(vec.Vector(b.unseenSlab[k*e.dim:(k+1)*e.dim]), e.q, sol.Unseen[k], dir)
		pts = append(pts, pt)
		val += e.opts.Agg.Solo(e.rels[j].maxTerm, pt.Dist2(e.q))
	}
	mu := vec.MeanInto(b.muBuf, pts)
	for _, pt := range pts {
		val -= b.wmu * pt.Dist2(mu)
	}
	return val
}
