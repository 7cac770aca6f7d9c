package agg

import "repro/internal/vec"

// Block scoring: the engine's combination-formation hot path evaluates,
// at the innermost enumeration level, a run of candidate combinations
// that share every slot except one. Function.ScoreBlock turns that run
// into a single kernel call over columnar state instead of one
// ScoreScratch call per leaf.
//
// The contract is bitwise identity with the scalar path, which two
// observations make possible:
//
//   - Each slot's term splits as qterm − w_µ·dist(x, µ): qterm (the
//     score-transform and query-distance part) does not depend on the
//     centroid, so it can be computed once per pulled tuple and cached in
//     a per-relation column. Go evaluates a − b − c as (a−b) − c, so the
//     cached (a−b) reproduces the inline expression bit for bit.
//   - The centroid mean accumulates the slot vectors in index order, so
//     the partial sum over the fixed slots before the varying one is a
//     shared prefix: computed once per block, then extended per candidate
//     with the same operation sequence MeanInto would have used.

// BlockScratch is the reusable working storage of ScoreBlock: the shared
// centroid prefix, one centroid per block lane (views into a flat slab),
// and a distance column. It belongs to one engine and grows to the
// largest (dimension, block) it has seen.
type BlockScratch struct {
	prefix vec.Vector
	mus    []vec.Vector
	slab   []float64
	dist   []float64
	dim    int
}

// Ensure pre-sizes the scratch for dimension d and block width b. An
// engine that knows its block width up front calls this once at
// construction so the incremental widths ScoreBlock sees during a run
// (candidate lists grow one tuple per pull) never trigger a regrow.
func (s *BlockScratch) Ensure(d, b int) { s.ensure(d, b) }

// ensure sizes the scratch for dimension d and block width b.
func (s *BlockScratch) ensure(d, b int) {
	if s.dim != d || len(s.mus) < b {
		if s.dim != d {
			s.prefix = vec.New(d)
		}
		lanes := b
		if lanes < len(s.mus) {
			lanes = len(s.mus)
		}
		s.slab = make([]float64, d*lanes)
		s.mus = make([]vec.Vector, lanes)
		for j := 0; j < lanes; j++ {
			s.mus[j] = vec.Vector(s.slab[j*d : (j+1)*d])
		}
		s.dim = d
	}
	if cap(s.dist) < b {
		s.dist = make([]float64, b)
	}
	s.dist = s.dist[:b]
}

// centroids fills scr.mus[j] with the mean of xs with slot vary replaced
// by candXs[j], replaying MeanInto's accumulation order exactly: shared
// prefix over slots < vary, the candidate, the fixed suffix, then the
// 1/n scale.
func (s *BlockScratch) centroids(xs []vec.Vector, vary int, candXs []vec.Vector) {
	n := len(xs)
	b := len(candXs)
	if vary > 0 {
		copy(s.prefix, xs[0])
		vec.MeanAccumulate(s.prefix, xs[1:vary])
	}
	for j := 0; j < b; j++ {
		mu := s.mus[j]
		if vary == 0 {
			copy(mu, candXs[j])
		} else {
			copy(mu, s.prefix)
			mu.AddInPlace(candXs[j])
		}
	}
	for i := vary + 1; i < n; i++ {
		x := xs[i]
		for j := 0; j < b; j++ {
			s.mus[j].AddInPlace(x)
		}
	}
	inv := 1 / float64(n)
	for j := 0; j < b; j++ {
		s.mus[j].ScaleInPlace(inv)
	}
}

// QTerm implements Function: w_s·T(σ) − w_q·‖x−q‖², the first two
// operands of the ScoreScratch slot term.
func (e *EuclideanSum) QTerm(_ int, sigma float64, x, q vec.Vector) float64 {
	return e.W.Ws*e.TransformScore(sigma) - e.W.Wq*x.Dist2(q)
}

// ScoreBlock implements Function.
func (e *EuclideanSum) ScoreBlock(q vec.Vector, qterms []float64, xs []vec.Vector, vary int,
	candQ []float64, candXs []vec.Vector, scr *BlockScratch, out []float64) {
	n := len(xs)
	b := len(out)
	scr.ensure(len(q), b)
	scr.centroids(xs, vary, candXs[:b])
	mus := scr.mus[:b]
	dist := scr.dist[:b]
	for j := range out {
		out[j] = 0
	}
	// Slot-major accumulation: per candidate the terms still add in slot
	// order, exactly as the scalar loop over xs does.
	for i := 0; i < n; i++ {
		if i == vary {
			for j := 0; j < b; j++ {
				out[j] += candQ[j] - e.W.Wmu*candXs[j].Dist2(mus[j])
			}
			continue
		}
		vec.Dist2Into(dist, mus, xs[i])
		qt := qterms[i]
		for j := 0; j < b; j++ {
			out[j] += qt - e.W.Wmu*dist[j]
		}
	}
}
