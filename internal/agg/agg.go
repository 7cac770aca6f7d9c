// Package agg defines the aggregation functions of proximity rank join.
// An aggregation is the sum over the n joined tuples of a per-tuple term
// (paper eq. (2), the sum instance of eq. (1)); the reference Euclidean
// sum is
//
//	S(τ) = Σ_i  w_s·T(σ(τ_i)) − w_q·‖x(τ_i)−q‖² − w_µ·‖x(τ_i)−µ(τ)‖²
//
// where T is a monotone score transform (ln as in the paper, or identity
// as in Appendix C.2) and µ(τ) is the combination centroid — the
// arithmetic mean, which is the arg-min of the summed squared Euclidean
// distances used by the quadratic form.
//
// EuclideanSum is the one aggregation. SoloBound is its one per-tuple
// term: the engine sums it at each seen tuple in the order a score adds
// them, the corner bound reads it at a corner of what is unseen, and the
// tight bounds fold it with the centroid and unseen-query terms they
// subtract. Proximity by direction alone needs no second aggregation:
// between unit vectors ‖a−b‖² = 2(1 − cos(a, b)), so unit-normalized
// inputs make the squared Euclidean terms compare directions.
package agg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// ScoreTransform selects how σ enters the aggregation.
type ScoreTransform int

const (
	// LogScore uses w_s·ln(σ) as in paper eq. (2).
	LogScore ScoreTransform = iota
	// IdentityScore uses w_s·σ as in paper Appendix C.2.
	IdentityScore
)

// String implements fmt.Stringer.
func (t ScoreTransform) String() string {
	switch t {
	case LogScore:
		return "log"
	case IdentityScore:
		return "identity"
	}
	return fmt.Sprintf("ScoreTransform(%d)", int(t))
}

// Weights holds the user-preference weights of eq. (2).
type Weights struct {
	Ws, Wq, Wmu float64
}

// DefaultWeights matches the paper's experiments (w_s = w_q = w_µ = 1).
func DefaultWeights() Weights { return Weights{Ws: 1, Wq: 1, Wmu: 1} }

// Validate rejects negative or non-finite weights.
func (w Weights) Validate() error {
	for _, x := range []float64{w.Ws, w.Wq, w.Wmu} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return errors.New("agg: weights must be finite and non-negative")
		}
	}
	return nil
}

// EuclideanSum is the paper's reference aggregation (eq. (2)).
type EuclideanSum struct {
	W         Weights
	Transform ScoreTransform
}

// NewEuclideanSum validates the weights and returns the aggregation.
func NewEuclideanSum(w Weights, transform ScoreTransform) (*EuclideanSum, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &EuclideanSum{W: w, Transform: transform}, nil
}

// MustEuclideanSum is NewEuclideanSum that panics on error.
func MustEuclideanSum(w Weights, transform ScoreTransform) *EuclideanSum {
	e, err := NewEuclideanSum(w, transform)
	if err != nil {
		panic(err)
	}
	return e
}

// TransformScore applies the score transform T (ln or identity). A log
// transform of σ = 0 is −∞; relation validation keeps scores strictly
// positive so this stays finite in normal operation.
func (e *EuclideanSum) TransformScore(sigma float64) float64 {
	if e.Transform == IdentityScore {
		return sigma
	}
	return math.Log(sigma)
}

// Score evaluates the full combination: distances are derived from the
// query q and the mean centroid of xs. It is the definition the other
// evaluation forms agree with.
func (e *EuclideanSum) Score(q vec.Vector, sigmas []float64, xs []vec.Vector) float64 {
	if len(sigmas) != len(xs) || len(xs) == 0 {
		panic("agg: sigmas/xs mismatch or empty")
	}
	mu := vec.Mean(xs...)
	var s float64
	for i, x := range xs {
		s += e.W.Ws*e.TransformScore(sigmas[i]) - e.W.Wq*x.Dist2(q) - e.W.Wmu*x.Dist2(mu)
	}
	return s
}

// ScoreScratch is Score with mu (len = dim) as centroid scratch space,
// avoiding the per-combination centroid allocation on the formation hot
// path: the operation sequence matches Score exactly (MeanInto mirrors
// Mean bit-for-bit), so the result is bit-identical.
func (e *EuclideanSum) ScoreScratch(q vec.Vector, sigmas []float64, xs []vec.Vector, mu vec.Vector) float64 {
	if len(sigmas) != len(xs) || len(xs) == 0 {
		panic("agg: sigmas/xs mismatch or empty")
	}
	vec.MeanInto(mu, xs)
	var s float64
	for i, x := range xs {
		s += e.W.Ws*e.TransformScore(sigmas[i]) - e.W.Wq*x.Dist2(q) - e.W.Wmu*x.Dist2(mu)
	}
	return s
}

// SoloBound is w_s·T(σ) − w_q·d2, the term of a tuple with score sigma
// and squared distance d2 to the query, the centroid distance zeroed. At
// a tuple's own σ and x.Dist2(q) it is exactly the first two operands of
// the slot term ScoreScratch adds before subtracting the weighted
// centroid distance, so, rounded addition being monotone in each operand
// and fl(a − b) ≤ a for b ≥ 0, Score(q, σ, x) ≤ Σ_i SoloBound(σ_i,
// x_i.Dist2(q)) summed from 0 in slot order, bit for bit. It is
// non-decreasing in sigma and non-increasing in d2 in floating point: the
// corner bound reads it at the best score left and the least squared
// distance, a key. SoloBound(σ, 0) has the bits of w_s·T(σ).
func (e *EuclideanSum) SoloBound(sigma, d2 float64) float64 {
	return e.Solo(e.ScoreTerm(sigma), d2)
}

// ScoreTerm is w_s·T(σ), the part of SoloBound that reads the score:
// SoloBound(σ, d2) is Solo(ScoreTerm(σ), d2) bit for bit, so a caller
// that reads one score at several distances takes T once.
func (e *EuclideanSum) ScoreTerm(sigma float64) float64 {
	return e.W.Ws * e.TransformScore(sigma)
}

// Solo is SoloBound from a score term: term − w_q·d2. Solo(term, 0) is
// term, since x − 0 = x.
func (e *EuclideanSum) Solo(term, d2 float64) float64 {
	return term - e.W.Wq*d2
}

// String labels the function in reports.
func (e *EuclideanSum) String() string {
	return fmt.Sprintf("euclidean-sum(ws=%g,wq=%g,wmu=%g,%s)", e.W.Ws, e.W.Wq, e.W.Wmu, e.Transform)
}
