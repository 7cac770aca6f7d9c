package api

// Version is the current (and only) protocol version. Requests carrying
// an empty Version are normalized to it; any other value is rejected, so
// a future v2 can change semantics without silently breaking v1 clients.
const Version = "v1"

// Canonical enum vocabularies. Normalize folds aliases (hrjn, hrjn*, id,
// case variants) onto these spellings, so downstream consumers and the
// canonical encoding only ever see one name per meaning.
const (
	AlgorithmCBRR = "cbrr" // corner bound, round-robin (HRJN)
	AlgorithmCBPA = "cbpa" // corner bound, potential-adaptive (HRJN*)
	AlgorithmTBRR = "tbrr" // tight bound, round-robin
	AlgorithmTBPA = "tbpa" // tight bound, potential-adaptive (default)

	AccessDistance = "distance"
	AccessScore    = "score"

	TransformLog      = "log"
	TransformIdentity = "identity"

	// BufferPrune and BufferSpill are the two values Request.BufferPolicy
	// accepts. Both are ignored; they leave with the field (the ROADMAP
	// item "`bench/` follows the code").
	BufferPrune = "prune"
	BufferSpill = "spill"

	// PartialAllow (the default) lets a distributed query degrade to the
	// surviving shards when every replica of some shard is down;
	// PartialForbid fails such queries with CodeUnavailable instead.
	PartialAllow  = "allow"
	PartialForbid = "forbid"
)

// Request is one proximity rank join query. Only Query, Relations and K
// are required; Normalize fills every other field with the paper's best
// configuration (TBPA, distance access, unit weights, log scores).
//
// The JSON shape is shared by POST /v1/query and POST /v1/query/stream.
type Request struct {
	// Version is the protocol version ("" = v1).
	Version string `json:"version,omitempty"`
	// Query is the target vector q.
	Query []float64 `json:"query"`
	// Relations names the inputs, in join order.
	Relations []string `json:"relations"`
	// K is the number of results (required, >= 1). Session consumers may
	// enumerate past K without restarting; K remains the batch size and
	// the target the DNF caps are judged against.
	K int `json:"k"`
	// Algorithm is one of cbrr|cbpa|tbrr|tbpa (default tbpa); hrjn and
	// hrjn* are accepted aliases for cbrr and cbpa.
	Algorithm string `json:"algorithm,omitempty"`
	// Access is distance (default) or score.
	Access string `json:"access,omitempty"`
	// Weights override w_s, w_q, w_mu (all default to 1).
	Weights *Weights `json:"weights,omitempty"`
	// Transform is log (default) or identity.
	Transform string `json:"transform,omitempty"`
	// Epsilon relaxes the stopping test (0 = exact top-K).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxSumDepths / MaxCombinations abort long runs with a DNF result.
	MaxSumDepths    int   `json:"maxSumDepths,omitempty"`
	MaxCombinations int64 `json:"maxCombinations,omitempty"`
	// BufferPolicy is validated ("prune" or "spill", case-insensitive;
	// anything else is a bad request) and then ignored: every query a
	// server runs stops at K, so its buffer is a bounded consumer that
	// drops what ranks below its floor, whatever this says. Not part of
	// the canonical encoding. It stays only while the benchmark harness
	// still sends it, and leaves with the ROADMAP item "`bench/` follows
	// the code".
	BufferPolicy string `json:"bufferPolicy,omitempty"`
	// TimeoutMillis overrides the server's default per-query deadline.
	// Transport concern: not part of the canonical encoding.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// NoCache bypasses the result cache for this query. Transport
	// concern: not part of the canonical encoding.
	NoCache bool `json:"noCache,omitempty"`
	// Trace asks for a structured execution trace — per-phase timings,
	// per-pull access depths, bound updates, buffer events — returned in
	// Response.Trace (batch) or as a terminal trace event (streams).
	// Transport concern: not part of the canonical encoding, so a traced
	// request shares cache entries and coalesces with its untraced twin;
	// results are byte-identical either way.
	Trace bool `json:"trace,omitempty"`
	// Partial is "allow" (default) or "forbid": whether a distributed
	// query may complete over the surviving shards — reporting
	// Response.Degraded with the missing shards — when every replica of
	// some shard is unreachable, or must fail with CodeUnavailable.
	// Under healthy operation the answer is identical either way, and
	// degraded responses are never cached, so Partial is not part of the
	// canonical encoding.
	Partial string `json:"partial,omitempty"`
}

// Weights mirrors the aggregation weights of paper eq. (2) in JSON.
type Weights struct {
	Ws  float64 `json:"ws"`
	Wq  float64 `json:"wq"`
	Wmu float64 `json:"wmu"`
}

// Tuple is one member of a result combination.
type Tuple struct {
	Relation string            `json:"relation"`
	ID       string            `json:"id"`
	Score    float64           `json:"score"`
	Vec      []float64         `json:"vec"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Combination is one ranked join result.
type Combination struct {
	Score  float64 `json:"score"`
	Tuples []Tuple `json:"tuples"`
}

// Cost reports what a query cost the engine — the paper's metrics
// (sumDepths et al.) plus wall time.
type Cost struct {
	SumDepths     int   `json:"sumDepths"`
	Depths        []int `json:"depths"`
	Combinations  int64 `json:"combinations"`
	BoundUpdates  int64 `json:"boundUpdates"`
	QPSolves      int64 `json:"qpSolves,omitempty"`
	ElapsedMicros int64 `json:"elapsedMicros"`
	// Threshold is the final bound; absent when it is not finite (±Inf is
	// not representable in JSON — −Inf after full exhaustion, +Inf when a
	// cap fired before the first bound update).
	Threshold *float64 `json:"threshold,omitempty"`
	// SpilledCombinations and SpilledBytes are never set: a server never
	// spills (every query it runs stops at K). They stay only while the
	// benchmark harness still zeroes them, and leave with the ROADMAP item
	// "`bench/` follows the code".
	SpilledCombinations int64 `json:"spilledCombinations,omitempty"`
	SpilledBytes        int64 `json:"spilledBytes,omitempty"`
}

// Response answers a batch query. Responses handed out by a server may be
// shared with its result cache and must be treated as read-only.
type Response struct {
	Results []Combination `json:"results"`
	// DNF is true when a MaxSumDepths/MaxCombinations cap stopped the run
	// before the bound certified the top-K; the results past the last
	// certified one are the engine's best-effort prefix. The session API
	// signals the same condition as an Error with code CodeDNF — see the
	// mapping table in error.go.
	DNF    bool `json:"dnf,omitempty"`
	Cached bool `json:"cached"`
	Cost   Cost `json:"cost"`
	// Trace is the execution trace, present only when the request asked
	// for one (Request.Trace). Never shared with the result cache: a
	// cached Response is handed out without it and each traced caller
	// gets its own.
	Trace *Trace `json:"trace,omitempty"`
	// Degraded is true when the query completed without some shard whose
	// every replica was unreachable (Request.Partial "allow"): Results
	// are exact over the surviving shards — byte-identical to a run over
	// only those shards — but are not a certified global top-K.
	// Degraded responses are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// ShardsMissing lists the shards that contributed nothing (or only a
	// prefix, if their replicas died mid-stream) to a degraded response.
	ShardsMissing []MissingShard `json:"shardsMissing,omitempty"`
	// ResultsCertified is set on degraded responses: the number of
	// results certified against the data that was actually reachable
	// (len(Results), or 0 when a DNF cap also fired and even the
	// surviving-shard certification was cut short).
	ResultsCertified int `json:"resultsCertified,omitempty"`
}

// MissingShard identifies one shard a degraded response is missing.
type MissingShard struct {
	Relation string `json:"relation"`
	Shard    int    `json:"shard"`
}

// EventType discriminates streaming events.
type EventType string

const (
	// EventResult carries one ranked combination, delivered as soon as
	// the engine certifies it.
	EventResult EventType = "result"
	// EventSummary closes a successful stream with the run's totals.
	EventSummary EventType = "summary"
	// EventError closes a stream that failed after it started.
	EventError EventType = "error"
	// EventTrace carries the execution trace of a traced stream, emitted
	// once after the summary (it is the terminal event: the trace spans
	// the delivery itself, so it cannot precede the summary).
	EventTrace EventType = "trace"
)

// ResultEvent is one NDJSON line of an incremental query stream: K result
// events (rank 1 first, flushed as produced) followed by exactly one
// summary event — or an error event if the run fails midway. A traced
// stream appends exactly one trace event after the summary.
type ResultEvent struct {
	Type EventType `json:"type"`
	// Rank is the 1-based position of a result event.
	Rank int `json:"rank,omitempty"`
	// Result is set on result events.
	Result *Combination `json:"result,omitempty"`
	// Summary is set on the final summary event.
	Summary *Summary `json:"summary,omitempty"`
	// Error is set on error events.
	Error *Error `json:"error,omitempty"`
	// Trace is set on trace events.
	Trace *Trace `json:"trace,omitempty"`
}

// Summary is the trailer of a result stream: everything a Response
// carries beyond the combinations themselves.
type Summary struct {
	// Count is the number of result events that preceded the summary.
	Count int `json:"count"`
	// DNF marks a capped run; results streamed after the cap fired are
	// the engine's uncertified best-effort tail (matching the batch
	// endpoint's DNF results).
	DNF    bool `json:"dnf,omitempty"`
	Cached bool `json:"cached"`
	Cost   Cost `json:"cost"`
	// Degraded/ShardsMissing/ResultsCertified mirror the batch Response
	// fields for a stream that completed without some shard.
	Degraded         bool           `json:"degraded,omitempty"`
	ShardsMissing    []MissingShard `json:"shardsMissing,omitempty"`
	ResultsCertified int            `json:"resultsCertified,omitempty"`
}

// CollectStream reassembles a batch Response from a finished event
// sequence — the inverse of streaming a response. It is what a client
// (or an equivalence test) uses to compare the streaming endpoint
// against the batch one.
func CollectStream(events []ResultEvent) (*Response, *Error) {
	resp := &Response{}
	summarized := false
	for _, ev := range events {
		if summarized && ev.Type != EventTrace {
			return nil, Errorf(CodeInternal, "event of type %q after the summary", ev.Type)
		}
		switch ev.Type {
		case EventResult:
			if ev.Result == nil {
				return nil, Errorf(CodeInternal, "result event %d carries no result", ev.Rank)
			}
			resp.Results = append(resp.Results, *ev.Result)
		case EventSummary:
			if ev.Summary == nil {
				return nil, Errorf(CodeInternal, "summary event carries no summary")
			}
			resp.DNF = ev.Summary.DNF
			resp.Cached = ev.Summary.Cached
			resp.Cost = ev.Summary.Cost
			resp.Degraded = ev.Summary.Degraded
			resp.ShardsMissing = ev.Summary.ShardsMissing
			resp.ResultsCertified = ev.Summary.ResultsCertified
			summarized = true
		case EventError:
			if ev.Error == nil {
				return nil, Errorf(CodeInternal, "error event carries no error")
			}
			return nil, ev.Error
		case EventTrace:
			if !summarized {
				return nil, Errorf(CodeInternal, "trace event before the summary")
			}
			if ev.Trace == nil {
				return nil, Errorf(CodeInternal, "trace event carries no trace")
			}
			resp.Trace = ev.Trace
		default:
			return nil, Errorf(CodeInternal, "unknown event type %q", ev.Type)
		}
	}
	if !summarized {
		return nil, Errorf(CodeInternal, "stream ended without a summary event")
	}
	return resp, nil
}
