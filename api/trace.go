package api

// Tracing model. A request carrying trace=true gets back, alongside its
// ordinary results, a structured account of where the time went and
// what the engine did to certify the answer: per-phase wall times,
// every source pull with its depth, and every bound update of the run.
// Batch responses carry it in Response.Trace; streams append one
// terminal trace event after the summary. The same structure is what the
// server's slow-query log emits, so a trace captured interactively and
// one logged in production are directly comparable.
//
// The flag is a transport concern: it is excluded from the canonical
// encoding, so a traced request shares cache entries and coalesces with
// its untraced twin — and consequently a trace observes the run it
// happened to get (a cache hit or a coalesced follow has no engine
// phases to report; CacheState says which case occurred).

// Cache states reported in Trace.CacheState.
const (
	// CacheMiss: this request ran the engine; pull-level detail is
	// present (on the batch path and for stream leaders).
	CacheMiss = "miss"
	// CacheHit: answered from the result cache; only the service phases
	// are present.
	CacheHit = "hit"
	// CacheCoalesced: answered by joining another caller's in-flight
	// run; only the service phases are present.
	CacheCoalesced = "coalesced"
	// CacheBypass: the request opted out of the cache (noCache) or the
	// server runs without one; the engine ran without consulting or
	// filling the cache.
	CacheBypass = "bypass"
)

// Phase names reported in TracePhase.Name, in causal order.
const (
	// PhaseValidate: normalizing the request and resolving relations.
	PhaseValidate = "validate"
	// PhaseCache: the result-cache lookup.
	PhaseCache = "cache"
	// PhaseFlight: single-flight coordination — for a coalesced
	// follower, the whole wait for the leader's outcome.
	PhaseFlight = "flight"
	// PhaseEngine: the rank-join run itself.
	PhaseEngine = "engine"
	// PhaseDrain: stream delivery — draining the broker subscription to
	// the client sink (streams only).
	PhaseDrain = "drain"
)

// Trace is the structured account of one query's execution.
type Trace struct {
	// CacheState is miss, hit, or coalesced.
	CacheState string `json:"cacheState"`
	// Phases are the service-layer spans that actually occurred, in
	// causal order with their wall times.
	Phases []TracePhase `json:"phases"`
	// Pulls records every sorted access the engine made: which relation,
	// the depth reached, and the pull's wall time. Present only when
	// this request ran the engine (CacheState == miss).
	Pulls []TracePull `json:"pulls,omitempty"`
	// Bounds records each stopping-threshold recomputation.
	Bounds []TraceBound `json:"bounds,omitempty"`
	// DroppedEvents counts detail events the recorder discarded after
	// its per-kind retention cap — the trace is truncated, not the run.
	DroppedEvents int64 `json:"droppedEvents,omitempty"`
	// Degraded/ShardsMissing mirror the response fields: the run
	// completed without these shards (every replica unreachable).
	Degraded      bool           `json:"degraded,omitempty"`
	ShardsMissing []MissingShard `json:"shardsMissing,omitempty"`
}

// TracePhase is one service-layer span.
type TracePhase struct {
	Name          string `json:"name"`
	ElapsedMicros int64  `json:"elapsedMicros"`
}

// TracePull is one sorted access on one relation.
type TracePull struct {
	// Relation is the relation's position in the join (0-based), which
	// is stable even when one relation appears twice.
	Relation int `json:"relation"`
	// Depth is the access depth after this pull — d_i in the paper's
	// sumDepths cost metric.
	Depth         int   `json:"depth"`
	ElapsedMicros int64 `json:"elapsedMicros"`
}

// TraceBound is one stopping-threshold recomputation.
type TraceBound struct {
	// SumDepths is the cumulative access depth when the bound updated.
	SumDepths int `json:"sumDepths"`
	// Threshold is the new bound; absent when it is not finite (±Inf is
	// not representable in JSON), matching Cost.Threshold.
	Threshold *float64 `json:"threshold,omitempty"`
}
