// Package qp solves the convex quadratic programs arising in the tight
// bounding scheme of proximity rank join.
//
// The central problem is paper eq. (14): after the collinearity reduction
// (Theorem 3.4) the bound on a partial combination is
//
//	minimize   w_q·Σ θ_i² + w_µ·Σ (θ_i − θ̄)²
//	subject to θ_i = p_i      for seen tuples (ray projections, eq. 13)
//	           θ_i ≥ δ_i      for unseen tuples (distance-access constraint)
//
// with θ̄ the mean of all θ. The Hessian is H = w_q·I + w_µ·(I − 11ᵀ/n),
// whose special structure makes every free variable share a single
// stationary value; Solve14 exploits this for an exact O(u log u) solution.
// (The tests cross-check it against a general primal active-set solver.)
package qp

import (
	"errors"
	"math"
)

// ErrBadWeights is returned when a weight is negative or not finite.
var ErrBadWeights = errors.New("qp: weights must be finite and non-negative")

// Solution14 is the result of Solve14.
type Solution14 struct {
	// Theta holds the optimal coordinates for all variables: first the
	// fixed (seen) values as given, then the unseen values in input order.
	Theta []float64
	// Unseen aliases the unseen suffix of Theta.
	Unseen []float64
	// Objective is the minimized quadratic w_q·Σθ² + w_µ·Σ(θ−θ̄)².
	Objective float64
}

// Scratch holds the working storage of Eval so that a caller solving one
// problem (14) instance per bound evaluation — the engine solves tens of
// thousands per query — reuses the same two slices across calls instead
// of allocating them. A Scratch belongs to one engine (goroutine); it is
// deliberately not pooled, so ownership and lifetime stay explicit.
type Scratch struct {
	theta []float64
	order []int
}

// grow resizes the scratch for an n-variable problem with u unseen.
func (s *Scratch) grow(n, u int) {
	if cap(s.theta) < n {
		s.theta = make([]float64, n)
	}
	s.theta = s.theta[:n]
	if cap(s.order) < u {
		s.order = make([]int, u)
	}
	s.order = s.order[:u]
}

// Solve14 solves paper problem (14) exactly.
//
// fixed are the ray projections of the m seen tuples (may be negative);
// lower are the distance lower bounds δ_i ≥ 0 of the n−m unseen tuples.
// wq and wmu are the query- and centroid-distance weights (non-negative,
// not both zero together with an empty problem is fine — the objective is
// then identically zero).
//
// The returned solution owns its storage; the allocation-free variant for
// hot paths is Eval.
func Solve14(wq, wmu float64, fixed, lower []float64) (Solution14, error) {
	var scr Scratch
	return Eval(wq, wmu, fixed, lower, &scr)
}

// Eval is Solve14 writing into caller-owned scratch: the returned
// solution's Theta/Unseen alias scr's storage and stay valid only until
// the next Eval with the same scratch. Results are identical to Solve14.
func Eval(wq, wmu float64, fixed, lower []float64, scr *Scratch) (Solution14, error) {
	if !(wq >= 0) || !(wmu >= 0) || math.IsInf(wq, 0) || math.IsInf(wmu, 0) {
		return Solution14{}, ErrBadWeights
	}
	m, u := len(fixed), len(lower)
	n := m + u
	if n == 0 {
		return Solution14{Theta: nil, Unseen: nil, Objective: 0}, nil
	}

	scr.grow(n, u)
	theta := scr.theta
	copy(theta, fixed)
	unseen := theta[m:]

	if u == 0 {
		// Nothing to optimize; evaluate the objective at the fixed point.
		return Solution14{Theta: theta, Unseen: unseen, Objective: quad14(wq, wmu, theta)}, nil
	}

	// Sort unseen indices by δ descending: the optimal active set clamps a
	// prefix of this order (threshold structure of the shared stationary
	// value). Insertion sort: the typical u is n−m ≤ 3, and for any u < 12
	// the permutation (ties included) matches what sort.Slice used to
	// produce, without the reflection-based swapper allocation.
	order := scr.order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < u; i++ {
		for j := i; j > 0 && lower[order[j]] > lower[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	sumFixed := 0.0
	for _, p := range fixed {
		sumFixed += p
	}

	// Try clamping the k largest-δ unseen variables for k = 0..u; the free
	// remainder shares ψ = w_µ·s / (n(w_q+w_µ) − kFree·w_µ). Pick the first
	// KKT-consistent split.
	sumClamped := 0.0
	chosen := false
	for k := 0; k <= u; k++ {
		kFree := u - k
		denom := float64(n)*(wq+wmu) - float64(kFree)*wmu
		if k > 0 {
			sumClamped += lower[order[k-1]]
		}
		if denom <= 1e-300 {
			// Degenerate (w_q = 0 and everything free): any common value is
			// optimal; clamping one more variable resolves it next round.
			continue
		}
		psi := wmu * (sumFixed + sumClamped) / denom
		// Feasibility of free variables: ψ ≥ every free δ.
		if kFree > 0 && psi < lower[order[k]]-1e-12 {
			continue
		}
		// Multiplier sign for clamped variables: every clamped δ ≥ ψ.
		if k > 0 && lower[order[k-1]] < psi-1e-12 {
			continue
		}
		for j := 0; j < k; j++ {
			unseen[order[j]] = lower[order[j]]
		}
		for j := k; j < u; j++ {
			unseen[order[j]] = psi
		}
		chosen = true
		break
	}
	if !chosen {
		// Unreachable for a convex problem, but fall back to the fully
		// clamped (always feasible) point rather than failing.
		for j := 0; j < u; j++ {
			unseen[j] = lower[j]
		}
	}
	return Solution14{Theta: theta, Unseen: unseen, Objective: quad14(wq, wmu, theta)}, nil
}

// quad14 evaluates w_q·Σθ² + w_µ·Σ(θ−θ̄)².
func quad14(wq, wmu float64, theta []float64) float64 {
	if len(theta) == 0 {
		return 0
	}
	var sum, sq float64
	for _, t := range theta {
		sum += t
		sq += t * t
	}
	mean := sum / float64(len(theta))
	var spread float64
	for _, t := range theta {
		d := t - mean
		spread += d * d
	}
	return wq*sq + wmu*spread
}
