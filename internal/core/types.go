// Package core implements the ProxRJ template of the paper (Algorithm 1)
// and its four instantiations: the corner and tight bounding schemes
// crossed with the round-robin and potential-adaptive pulling strategies.
// CBRR and CBPA correspond to the HRJN and HRJN* operators of Ilyas et
// al.; TBRR and TBPA are the paper's instance-optimal algorithms.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// BoundKind selects the bounding scheme of the ProxRJ template.
type BoundKind int

const (
	// CornerBound is the HRJN-style bound (paper eq. (3)/(36)); correct but
	// not tight, hence not instance-optimal (Theorems 3.1, C.1).
	CornerBound BoundKind = iota
	// TightBound is the paper's tight bound (eq. (9)/(40)); instance-optimal
	// with either pulling strategy (Theorems 3.3, C.3, Corollary 3.6).
	TightBound
)

// String implements fmt.Stringer.
func (b BoundKind) String() string {
	switch b {
	case CornerBound:
		return "corner"
	case TightBound:
		return "tight"
	}
	return fmt.Sprintf("BoundKind(%d)", int(b))
}

// PullKind selects the pulling strategy.
type PullKind int

const (
	// RoundRobin accesses relations cyclically.
	RoundRobin PullKind = iota
	// PotentialAdaptive accesses the relation with the highest potential
	// (paper §3.3), breaking ties by least depth, then least index.
	PotentialAdaptive
)

// String implements fmt.Stringer.
func (p PullKind) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case PotentialAdaptive:
		return "potential-adaptive"
	}
	return fmt.Sprintf("PullKind(%d)", int(p))
}

// Algorithm names the four tested ProxRJ instantiations (paper §4.1).
// The zero value is TBPA, the paper's best algorithm, so that a zero
// Options selects it by default.
type Algorithm int

const (
	// TBPA is tight bound + potential adaptive (instance-optimal, never
	// deeper than TBRR; the default).
	TBPA Algorithm = iota
	// TBRR is tight bound + round robin.
	TBRR
	// CBPA is corner bound + potential adaptive (≡ HRJN*).
	CBPA
	// CBRR is corner bound + round robin (≡ HRJN).
	CBRR
)

// Algorithms lists all four in paper order.
var Algorithms = []Algorithm{CBRR, CBPA, TBRR, TBPA}

// Bound returns the algorithm's bounding scheme.
func (a Algorithm) Bound() BoundKind {
	if a == TBRR || a == TBPA {
		return TightBound
	}
	return CornerBound
}

// Pull returns the algorithm's pulling strategy.
func (a Algorithm) Pull() PullKind {
	if a == CBPA || a == TBPA {
		return PotentialAdaptive
	}
	return RoundRobin
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case CBRR:
		return "CBRR(HRJN)"
	case CBPA:
		return "CBPA(HRJN*)"
	case TBRR:
		return "TBRR"
	case TBPA:
		return "TBPA"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ShortName returns the bare paper label without the HRJN aliases.
func (a Algorithm) ShortName() string {
	switch a {
	case CBRR:
		return "CBRR"
	case CBPA:
		return "CBPA"
	case TBRR:
		return "TBRR"
	case TBPA:
		return "TBPA"
	}
	return a.String()
}

// Options configure a ProxRJ run.
type Options struct {
	// K is the number of top combinations to return (must be ≥ 1).
	K int
	// Algorithm selects the bound/pull pair; the zero value is TBPA.
	Algorithm Algorithm
	// Query is the target vector q.
	Query vec.Vector
	// Agg is the aggregation function, the paper's eq. (2) sum; every
	// bound reads its SoloBound terms.
	Agg *agg.EuclideanSum
	// EagerBounds recomputes every affected partial-combination bound on
	// each pull, exactly as paper Algorithm 2; the default (false) uses a
	// lazy max-heap that yields identical thresholds with fewer QP solves.
	EagerBounds bool
	// Epsilon relaxes the stopping condition to kth-best ≥ t − Epsilon:
	// the run may stop earlier, and every returned combination is
	// guaranteed to score within Epsilon of any combination it displaced
	// (the approximation contract of Finger & Polyzotis's approximate
	// bounds, applied at the stopping test). 0 means exact.
	Epsilon float64
	// MaxSumDepths aborts the run (DNF) once total accesses reach this
	// value; 0 means unlimited.
	MaxSumDepths int
	// MaxCombinations aborts the run (DNF) once this many combinations
	// have been formed; 0 means unlimited.
	MaxCombinations int64
	// MaxBuffered is the window of a pipelined Iterator: the number of
	// formed-but-unemitted combinations retained in ranked form. The
	// window shrinks with every result taken (the best MaxBuffered −
	// emitted are retained, at least one), and a full window's worst entry
	// is a score floor below which formation cuts whole subtrees. A
	// positive MaxBuffered is a bounded consumer: what the window does not
	// retain is dropped, and once emitted plus drained results reach
	// MaxBuffered, Next fails with ErrIteratorPastBound and DrainBest
	// yields nothing. MaxBuffered 0 is an open session, exact however far
	// it enumerates: what its 1 024-entry window does not retain is kept
	// in memory (spilled entries in a heap, cut subtrees as deferred
	// records). Batch engines (Run) ignore it — their buffer is K by
	// construction.
	MaxBuffered int
	// CollectTimings enables the per-pull wall-clock sampling behind
	// Stats.BoundTime (the stacked bars of Fig. 3(d)-(l)). Off by default
	// so stats collection does not tax every pull; Stats.TotalTime is
	// always collected.
	CollectTimings bool
	// Tracer, when non-nil, observes the run at pull granularity: every
	// access with its depth and wall time, every threshold update, every
	// buffer pressure event. Nil costs one pointer check per pull.
	Tracer Tracer
	// disablePrune turns score-floor pruning off. Test-only: the unpruned
	// run is the byte-identity oracle for the pruned one.
	disablePrune bool
	// disableBlock turns the batched scoring kernel off. Test-only: the
	// scalar formation path is the byte-identity oracle for the block-pull
	// mode.
	disableBlock bool
	// blockSize overrides DefaultBlockSize when positive (1 degenerates to
	// per-candidate kernel calls). Test-only: the identity suites sweep it
	// to show results are byte-identical at every width — the batch kernels
	// replay the scalar operation sequence exactly.
	blockSize int
	// window overrides openWindow, an open session's window, when
	// positive. Test-only: a small window drives eviction, spilling,
	// deferral and revival on small inputs.
	window int
}

// DefaultBlockSize is the width of the batched scoring kernel: at the
// innermost enumeration level, surviving candidate combinations are scored
// against the columnar per-relation state in blocks of this size instead
// of one leaf at a time. Chosen by benchmark (see EXPERIMENTS.md) as the
// point where the kernel's per-block overheads are fully amortized without
// outgrowing L1.
const DefaultBlockSize = 64

// Combination is one joined result with its aggregate score.
type Combination struct {
	// Tuples holds one tuple per input relation, in relation order.
	Tuples []relation.Tuple
	// Ranks holds the access rank (0-based pull position) of each tuple in
	// its relation; used for deterministic tie-breaking.
	Ranks []int
	// Score is the aggregate score S(τ).
	Score float64
}

// Stats records the cost metrics of a run (paper §4.1).
type Stats struct {
	// Depths is the number of tuples pulled per relation; SumDepths is the
	// paper's primary I/O metric.
	Depths    []int
	SumDepths int
	// CombinationsFormed counts cross-product members formed — the paper's
	// combination cost metric. Members cut by score-floor pruning are
	// included (and tallied separately in CombinationsPruned), so the
	// metric and the MaxCombinations cap read identically with pruning on
	// or off.
	CombinationsFormed int64
	// CombinationsPruned counts the CombinationsFormed members that
	// score-floor pruning cut without materializing. An open session keeps
	// them as deferred records, scored later only if emission reaches
	// them; they stay counted here.
	CombinationsPruned int64
	// PeakBuffered is the high-water mark of retained combinations (the
	// output buffer plus, for open sessions, the spill heap; deferred
	// records count only once expanded).
	PeakBuffered int
	// SpilledCombinations counts combinations moved to the spill heap of
	// an open session: the window's evictions, and offers (deferred record
	// members among them) that land below it.
	SpilledCombinations int64
	// SpilledBytes is always zero: the engine writes no files. It is a
	// vestige kept until ROADMAP item 18(a), because bench/ reads it.
	SpilledBytes int64
	// BoundUpdates counts bound updates: one register and threshold read
	// per pulled tuple.
	BoundUpdates int64
	// QPSolves counts tight-bound optimizations (problem (14) instances,
	// or eq. (41) evaluations under score access).
	QPSolves int64
	// PartialsTracked counts partial combinations ever registered; under
	// score access, the partials the tight bound's walk reaches, since the
	// subtrees it skips are never formed.
	PartialsTracked int64
	// TotalTime is wall-clock for the whole run; BoundTime is the fraction
	// spent updating the bound, registering a pull or an exhaustion and
	// reading the threshold (the stacked bars of Fig. 3(d)-(l)).
	TotalTime time.Duration
	BoundTime time.Duration
}

// Result is the output of a ProxRJ run.
type Result struct {
	// Combinations holds up to K results ordered by decreasing score
	// (ties: lexicographically by ranks).
	Combinations []Combination
	// Threshold is the final upper bound t at termination.
	Threshold float64
	// DNF is true when a MaxSumDepths/MaxCombinations cap stopped the run
	// before the bound certified the top-K (paper reports CBPA as DNF for
	// n = 4 in the same way).
	DNF bool
	// Stats are the run's cost metrics.
	Stats Stats
}

// Errors returned by engine construction and runs.
var (
	ErrNoRelations   = errors.New("core: at least two relations are required")
	ErrBadK          = errors.New("core: K must be at least 1")
	ErrMixedAccess   = errors.New("core: all sources must share one access kind")
	ErrDimMismatch   = errors.New("core: query and relation dimensions disagree")
	ErrNilAggregator = errors.New("core: aggregation function is required")
)
