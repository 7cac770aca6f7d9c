package api

import (
	"math"
	"strings"
)

// Limits are the server-side bounds Normalize enforces on top of the
// structural rules. The zero value enforces nothing extra, which is what
// library (non-serving) consumers want.
type Limits struct {
	// MaxK rejects requests asking for more than this many results
	// (0 = unlimited).
	MaxK int
}

// Normalize validates the request in place and fills every optional
// field with its canonical default: version v1, algorithm tbpa, distance
// access, log transform, unit weights. Aliases (hrjn, hrjn*, id, case
// variants) are folded onto the canonical spellings, so after a
// successful Normalize two semantically equal requests are structurally
// equal — the property Canonical builds on. Normalize is idempotent.
//
// It returns nil on success and a CodeBadRequest *Error naming the first
// offending field otherwise; the request may be partially rewritten on
// failure and should be discarded.
func (r *Request) Normalize(limits Limits) *Error {
	switch r.Version {
	case "", Version:
		r.Version = Version
	default:
		return Errorf(CodeBadRequest, "unsupported api version %q (want %s)", r.Version, Version)
	}
	if len(r.Query) == 0 {
		return Errorf(CodeBadRequest, "query vector is required")
	}
	for i, v := range r.Query {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Errorf(CodeBadRequest, "query component %d is not finite", i)
		}
	}
	if len(r.Relations) < 2 {
		return Errorf(CodeBadRequest, "at least two relations are required, got %d", len(r.Relations))
	}
	for i, name := range r.Relations {
		if name == "" {
			return Errorf(CodeBadRequest, "relation name %d is empty", i)
		}
	}
	if r.K < 1 {
		return Errorf(CodeBadRequest, "k must be at least 1, got %d", r.K)
	}
	if limits.MaxK > 0 && r.K > limits.MaxK {
		return Errorf(CodeBadRequest, "k %d exceeds the server limit %d", r.K, limits.MaxK)
	}
	switch strings.ToLower(r.Algorithm) {
	case "", AlgorithmTBPA:
		r.Algorithm = AlgorithmTBPA
	case AlgorithmTBRR:
		r.Algorithm = AlgorithmTBRR
	case AlgorithmCBPA, "hrjn*":
		r.Algorithm = AlgorithmCBPA
	case AlgorithmCBRR, "hrjn":
		r.Algorithm = AlgorithmCBRR
	default:
		return Errorf(CodeBadRequest, "unknown algorithm %q (want cbrr|cbpa|tbrr|tbpa)", r.Algorithm)
	}
	switch strings.ToLower(r.Access) {
	case "", AccessDistance:
		r.Access = AccessDistance
	case AccessScore:
		r.Access = AccessScore
	default:
		return Errorf(CodeBadRequest, "unknown access kind %q (want distance|score)", r.Access)
	}
	switch strings.ToLower(r.Transform) {
	case "", TransformLog:
		r.Transform = TransformLog
	case TransformIdentity, "id":
		r.Transform = TransformIdentity
	default:
		return Errorf(CodeBadRequest, "unknown transform %q (want log|identity)", r.Transform)
	}
	if r.Weights == nil {
		r.Weights = &Weights{Ws: 1, Wq: 1, Wmu: 1}
	} else {
		bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
		if bad(r.Weights.Ws) || bad(r.Weights.Wq) || bad(r.Weights.Wmu) {
			return Errorf(CodeBadRequest, "weights must be finite non-negative numbers")
		}
		if r.Weights.Ws == 0 && r.Weights.Wq == 0 && r.Weights.Wmu == 0 {
			// The engine treats the zero value as "use unit weights"; an
			// explicit all-zero spec would silently rank by something the
			// caller did not ask for.
			return Errorf(CodeBadRequest, "at least one weight must be positive")
		}
	}
	switch strings.ToLower(r.Overflow) {
	case "":
		// Empty stays empty: it means "server default", which only the
		// serving layer knows.
	case OverflowBlock:
		r.Overflow = OverflowBlock
	case OverflowDrop:
		r.Overflow = OverflowDrop
	default:
		return Errorf(CodeBadRequest, "unknown overflow policy %q (want block|drop)", r.Overflow)
	}
	switch strings.ToLower(r.Partial) {
	case "", PartialAllow:
		r.Partial = PartialAllow
	case PartialForbid:
		r.Partial = PartialForbid
	default:
		return Errorf(CodeBadRequest, "unknown partial policy %q (want allow|forbid)", r.Partial)
	}
	if r.Epsilon < 0 || math.IsNaN(r.Epsilon) || math.IsInf(r.Epsilon, 0) {
		return Errorf(CodeBadRequest, "epsilon must be finite and non-negative")
	}
	if r.TimeoutMillis < 0 {
		return Errorf(CodeBadRequest, "timeoutMillis must be non-negative")
	}
	// The engine reads negative caps/periods as "disabled"; a client
	// sending one almost certainly wanted the opposite, so reject rather
	// than run unbounded.
	if r.MaxSumDepths < 0 || r.MaxCombinations < 0 {
		return Errorf(CodeBadRequest, "maxSumDepths and maxCombinations must be non-negative")
	}
	switch strings.ToLower(r.BufferPolicy) {
	case "", BufferPrune:
		// Empty stays empty: both mean prune, and neither enters the
		// canonical encoding.
		if r.BufferPolicy != "" {
			r.BufferPolicy = BufferPrune
		}
	case BufferSpill:
		r.BufferPolicy = BufferSpill
	default:
		return Errorf(CodeBadRequest, "unknown bufferPolicy %q (want prune|spill)", r.BufferPolicy)
	}
	return nil
}
