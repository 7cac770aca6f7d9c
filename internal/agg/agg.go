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
// Function is the whole contract an aggregation meets, and EuclideanSum
// is the one aggregation. The corner bounding scheme reads it through
// SoloBound (its caps are SoloBound at a corner, summed); the tight
// bounding scheme reads the weights and the score transform, which fix
// the closed-form geometry of ray reduction and the 1-D QP. Proximity by
// direction alone needs no second aggregation: between unit vectors
// ‖a−b‖² = 2(1 − cos(a, b)), so unit-normalized inputs make the squared
// Euclidean terms compare directions.
package agg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// Function is an aggregation function in the shape of paper eq. (2): the
// sum of one term per joined tuple, each monotone non-decreasing in the
// tuple's score and non-increasing in its distances to the query and to
// the centroid. It offers the evaluation forms the engine runs it
// through — scoring into a caller-owned centroid buffer, a separable
// per-tuple upper bound, a batched kernel over candidate blocks, and the
// weights and score transform the tight bounds are built from.
// Score is the definition; the other forms must agree with it as
// documented on each method.
type Function interface {
	// Score evaluates the full combination: distances are derived from the
	// query q and the centroid of xs.
	Score(q vec.Vector, sigmas []float64, xs []vec.Vector) float64
	// ScoreScratch is Score with mu (len = dim) as centroid scratch space,
	// avoiding the per-combination centroid allocation on the formation hot
	// path. The result must be bit-identical to Score.
	ScoreScratch(q vec.Vector, sigmas []float64, xs []vec.Vector, mu vec.Vector) float64
	// SoloBound is the corner bound's per-relation cap: an upper bound on
	// the term of any tuple with score at most sigma and Euclidean distance
	// to the query at least dq, the slot term with the centroid distance
	// zeroed (the centroid term only ever subtracts):
	//
	//	Score(q, σ, x) ≤ Σ_i SoloBound(σ_i, δ(x_i, q))
	//
	// It must be non-decreasing in sigma and non-increasing in dq: the
	// corner bound reads it at a corner of what is still unseen.
	SoloBound(sigma, dq float64) float64
	// QTerm returns the centroid-independent part of slot i's term for a
	// tuple with the given score and feature vector: exactly the value
	// the ScoreScratch accumulation adds before subtracting the weighted
	// centroid distance. It is the engine's one per-tuple term, the block
	// kernel's cached column and the bound formation prunes with: a
	// partial combination whose best possible completion (its seen
	// tuples' QTerms plus the per-relation maxima of the unseen slots)
	// cannot reach the current score floor is cut without being
	// materialized. The sum is sound because a slot adds
	// fl(QTerm − w_µ·d_µ) ≤ QTerm to the score, so only summation rounding
	// separates Σ QTerm from the score, and a slack scaled by the terms'
	// magnitude covers it. SoloBound at the tuple's own distance would not
	// do: σ − fl(√D)² can sit an ulp of D below σ − D, which no slack
	// scaled by the terms covers once σ and D nearly cancel.
	QTerm(i int, sigma float64, x, q vec.Vector) float64
	// ScoreBlock scores len(out) combinations that agree with (qterms,
	// xs) on every slot except vary, where candidate j places the tuple
	// with cached term candQ[j] and vector candXs[j]. qterms[vary] and
	// xs[vary] are ignored. Scores land in out, bit-identical to a
	// ScoreScratch call per candidate (see block.go).
	ScoreBlock(q vec.Vector, qterms []float64, xs []vec.Vector, vary int,
		candQ []float64, candXs []vec.Vector, scr *BlockScratch, out []float64)
	// Weights returns (w_s, w_q, w_µ).
	Weights() (ws, wq, wmu float64)
	// TransformScore applies the score transform T (ln or identity).
	TransformScore(sigma float64) float64
}

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

// TransformScore implements Function. A log transform of σ = 0 is −∞;
// relation validation keeps scores strictly positive so this stays finite
// in normal operation.
func (e *EuclideanSum) TransformScore(sigma float64) float64 {
	if e.Transform == IdentityScore {
		return sigma
	}
	return math.Log(sigma)
}

// Weights implements Function.
func (e *EuclideanSum) Weights() (ws, wq, wmu float64) { return e.W.Ws, e.W.Wq, e.W.Wmu }

// Score implements Function using the mean centroid.
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

// ScoreScratch implements Function: the operation sequence matches
// Score exactly (MeanInto mirrors Mean bit-for-bit), only the centroid
// buffer is caller-owned.
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

// SoloBound implements Function: the slot term with the centroid
// distance zeroed. The dropped −w_µ·dmu² term is never positive, so the
// sum of solo bounds dominates the full score.
func (e *EuclideanSum) SoloBound(sigma, dq float64) float64 {
	return e.W.Ws*e.TransformScore(sigma) - e.W.Wq*dq*dq
}

// String labels the function in reports.
func (e *EuclideanSum) String() string {
	return fmt.Sprintf("euclidean-sum(ws=%g,wq=%g,wmu=%g,%s)", e.W.Ws, e.W.Wq, e.W.Wmu, e.Transform)
}
