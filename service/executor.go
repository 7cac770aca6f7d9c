package service

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shardrpc"
)

// Config tunes the executor.
type Config struct {
	// Workers bounds the number of engine executions running at once;
	// excess queries wait for a slot until their context expires. Defaults
	// to GOMAXPROCS.
	Workers int
	// AdmissionQueue bounds how many queries may wait for a worker slot
	// at once; past the watermark new arrivals are shed immediately with
	// CodeOverloaded (HTTP 503 + Retry-After) instead of queueing into a
	// deadline they cannot meet. 0 takes 4×Workers; negative disables the
	// watermark (queries queue until their own deadline, the legacy
	// behavior).
	AdmissionQueue int
	// DefaultTimeout is the per-query deadline applied when the request
	// carries none (0 = no default deadline).
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a client may request via
	// TimeoutMillis, so one caller cannot pin a worker slot arbitrarily
	// long (0 = DefaultMaxTimeout).
	MaxTimeout time.Duration
	// CacheSize is the LRU result-cache capacity in responses. The zero
	// value takes the default (DefaultCacheSize), matching every other
	// field; pass a negative value to disable caching.
	CacheSize int
	// MaxK rejects requests asking for more than this many results
	// (0 = DefaultMaxK).
	MaxK int
	// StreamBuffer is the stream delivery broker's per-subscriber lag
	// window, in events: how far the engine may run ahead of a stream
	// consumer before the overflow policy intervenes. 0 takes
	// DefaultStreamBuffer; a negative value disables the broker entirely,
	// restoring the legacy coupled delivery in which a streaming leader
	// advances at its sink's pace and holds its worker slot while doing
	// so.
	StreamBuffer int
	// StreamOverflow is the default policy for a stream subscriber that
	// exhausts its lag window: api.OverflowBlock (the default — the
	// engine waits up to StreamBlockTimeout, then drops the subscriber)
	// or api.OverflowDrop (the subscriber is dropped immediately and the
	// engine never waits). A request may override it per subscriber via
	// api.Request.Overflow.
	StreamOverflow string
	// StreamBlockTimeout is each block-policy subscriber's cumulative
	// block budget: the total time the engine will ever wait on that
	// subscriber across its stream before dropping it (0 =
	// DefaultStreamBlockTimeout). Cumulative, so a consumer that keeps
	// catching up at the last instant still delays the engine by at
	// most this much in total.
	StreamBlockTimeout time.Duration
	// Registry receives every metric family the executor registers
	// (exposed by the HTTP layer at GET /metrics). Nil gets a private
	// registry, still reachable via Executor.Registry() — sharing one
	// registry across executors panics on the duplicate families.
	Registry *obs.Registry
	// SlowQueryThreshold, when positive, logs every request whose total
	// duration reaches it as one SlowQuery JSON line on SlowQueryLog.
	// The log line carries the same per-phase trace structure a traced
	// request returns.
	SlowQueryThreshold time.Duration
	// SlowQueryLog is where slow-query lines go. Nil disables logging
	// even when the threshold is set.
	SlowQueryLog io.Writer
	// SpillDir, when non-empty, gives every BufferSpill session a
	// file-backed spill tier rooted here: combinations past the in-memory
	// slab watermark move to compact on-disk segments and revive in exact
	// rank order, so open enumeration over huge cross products runs at
	// flat resident memory. Empty keeps spill purely in RAM.
	SpillDir string
	// SpillMemBytes is the per-session in-memory slab budget before
	// overflow goes to SpillDir (0 = the engine default, 4 MiB).
	SpillMemBytes int
}

// DefaultMaxK caps K when Config.MaxK is unset: a serving layer should
// not materialize unbounded top lists for a single caller.
const DefaultMaxK = 1000

// DefaultMaxTimeout caps client-requested deadlines when
// Config.MaxTimeout is unset.
const DefaultMaxTimeout = time.Minute

// DefaultCacheSize is the result-cache capacity when Config.CacheSize is
// unset.
const DefaultCacheSize = 1024

// DefaultStreamBuffer is the broker's per-subscriber lag window when
// Config.StreamBuffer is unset: the engine may publish this many events
// beyond what a subscriber has consumed before overflow handling kicks
// in.
const DefaultStreamBuffer = 64

// DefaultStreamBlockTimeout is the cumulative per-subscriber block
// budget when Config.StreamBlockTimeout is unset.
const DefaultStreamBlockTimeout = time.Second

// DefaultStreamOverflow is the subscriber overflow policy when
// Config.StreamOverflow is unset: wait briefly, then drop. Blocking
// first keeps honest-but-momentarily-unscheduled consumers attached even
// when the engine publishes much faster than any sink can read.
const DefaultStreamOverflow = api.OverflowBlock

// The service speaks the transport-neutral api model; these aliases keep
// the historical service names compiling while guaranteeing the wire
// shape is defined in exactly one place.
type (
	// QueryRequest is the JSON body of POST /v1/query (and the legacy
	// POST /v1/topk).
	QueryRequest = api.Request
	// WeightsSpec mirrors proxrank.Weights in JSON.
	WeightsSpec = api.Weights
	// ResultTuple is one member of a result combination.
	ResultTuple = api.Tuple
	// ResultCombination is one ranked join result.
	ResultCombination = api.Combination
	// QueryCost reports what a query cost the engine.
	QueryCost = api.Cost
	// QueryResponse is the JSON body answering a batch query. Responses
	// returned by Executor.Execute may be shared with its result cache
	// and must be treated as read-only.
	QueryResponse = api.Response
)

// EventSink receives streaming result events in order. A sink returning
// an error aborts the run; the executor treats that as the caller going
// away (the engine work is discarded, not cached).
type EventSink func(api.ResultEvent) error

// StatsSnapshot is the executor's cumulative view served by GET /v1/stats.
type StatsSnapshot struct {
	Queries      int64 `json:"queries"`
	Streamed     int64 `json:"streamed"`
	Completed    int64 `json:"completed"`
	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	Coalesced    int64 `json:"coalesced"`
	CacheEntries int   `json:"cacheEntries"`
	Canceled     int64 `json:"canceled"`
	BadRequests  int64 `json:"badRequests"`
	Failed       int64 `json:"failed"`
	Rejected     int64 `json:"rejected"`
	InFlight     int64 `json:"inFlight"`
	// Queued counts queries waiting for a worker slot right now; Degraded
	// counts queries that completed without some shard whose every
	// replica was unreachable.
	Queued     int64 `json:"queued"`
	Degraded   int64 `json:"degraded"`
	EngineRuns int64 `json:"engineRuns"`
	// StreamsBrokered counts streaming leaders whose delivery went
	// through the broker (engine decoupled from the sink).
	StreamsBrokered int64 `json:"streamsBrokered"`
	// MidRunAttaches counts coalesced stream followers that attached to a
	// live topic mid-run (replaying the certified prefix, tailing live
	// events) instead of waiting for the leader to finish.
	MidRunAttaches int64 `json:"midRunAttaches"`
	// SlowSubscriberDrops counts stream subscribers disconnected by the
	// overflow policy for consuming slower than the delivery buffer
	// allows.
	SlowSubscriberDrops int64 `json:"slowSubscriberDrops"`
	// StreamSubscribers is the number of stream subscriptions attached
	// right now, across every live topic.
	StreamSubscribers int64 `json:"streamSubscribers"`
	// StreamPeakLag is the largest subscriber lag (in buffered events)
	// any publish has ever observed.
	StreamPeakLag int64 `json:"streamPeakLag"`
	// StreamBlockedMicros is the cumulative time engine publishes spent
	// parked on block-policy laggards.
	StreamBlockedMicros int64 `json:"streamBlockedMicros"`
	TotalSumDepths      int64 `json:"totalSumDepths"`
	TotalCombinations   int64 `json:"totalCombinations"`
	TotalBoundUpdates   int64 `json:"totalBoundUpdates"`
	TotalEngineMicros   int64 `json:"totalEngineMicros"`
	// RemoteStreamsOpened counts remote shard streams a query actually
	// pulled from; ShardsPruned counts those whose bound proved the shard
	// could not contribute, so the coordinator never opened them.
	RemoteStreamsOpened int64 `json:"remoteStreamsOpened"`
	ShardsPruned        int64 `json:"shardsPruned"`
	// RemoteRowsConsumed counts rows the merges actually took from remote
	// shard streams — the useful share of the rows the peers sent (the
	// coordinator's /v1/stats reports those as remoteRowsFetched).
	RemoteRowsConsumed int64 `json:"remoteRowsConsumed"`
	// TotalSpilledCombinations counts combinations BufferSpill sessions
	// moved out of the ranked heap; TotalSpilledBytes is how many bytes of
	// those reached the file spill tier.
	TotalSpilledCombinations int64 `json:"totalSpilledCombinations"`
	TotalSpilledBytes        int64 `json:"totalSpilledBytes"`
}

// Executor answers queries against a catalog through a bounded worker
// pool with per-query deadlines and an LRU result cache. Batch
// (Execute) and streaming (ExecuteStream) consumption share one
// validation path, one canonical cache key, and one single-flight
// group, so identical concurrent queries coalesce across consumption
// models. It is safe for concurrent use.
type Executor struct {
	cat    *Catalog
	cfg    Config
	slots  chan struct{}
	cache  *resultCache
	flight *flightGroup

	// m is the metric instrument set; bins the broker instruments every
	// stream topic attaches, so delivery health aggregates across runs.
	m    *metrics
	bins *broker.Instruments
	// slowMu serializes slow-query log lines (the sink is shared).
	slowMu sync.Mutex

	// wrapSource, when set (tests only), wraps each relation's merged
	// source before the engine reads it — the hook used to prove
	// incremental delivery against a deliberately slow source.
	wrapSource func(proxrank.Source) proxrank.Source

	queries           atomic.Int64
	streamed          atomic.Int64
	completed         atomic.Int64
	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	coalesced         atomic.Int64
	canceled          atomic.Int64
	badRequests       atomic.Int64
	failed            atomic.Int64
	rejected          atomic.Int64
	inFlight          atomic.Int64
	queued            atomic.Int64
	degraded          atomic.Int64
	engineRuns        atomic.Int64
	streamsBrokered   atomic.Int64
	midRunAttaches    atomic.Int64
	slowDrops         atomic.Int64
	totalSumDepths    atomic.Int64
	totalCombinations atomic.Int64
	totalBoundUpdates atomic.Int64
	totalEngineMicros atomic.Int64
	remoteOpened      atomic.Int64
	shardsPruned      atomic.Int64
	remoteConsumed    atomic.Int64
	totalSpilled      atomic.Int64
	totalSpilledBytes atomic.Int64
}

// NewExecutor builds an executor over cat.
func NewExecutor(cat *Catalog, cfg Config) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.AdmissionQueue == 0 {
		cfg.AdmissionQueue = 4 * cfg.Workers
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = DefaultMaxK
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.StreamBuffer == 0 {
		cfg.StreamBuffer = DefaultStreamBuffer
	}
	if cfg.StreamBlockTimeout <= 0 {
		cfg.StreamBlockTimeout = DefaultStreamBlockTimeout
	}
	// Fold the policy to its two legal values once, here, so subPolicy
	// never has to interpret free-form strings. Case is forgiven ("Drop"
	// means drop); anything else gets the safe default.
	if strings.EqualFold(cfg.StreamOverflow, api.OverflowDrop) {
		cfg.StreamOverflow = api.OverflowDrop
	} else {
		cfg.StreamOverflow = DefaultStreamOverflow
	}
	x := &Executor{
		cat:    cat,
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.Workers),
		cache:  newResultCache(cfg.CacheSize),
		flight: newFlightGroup(),
		bins:   &broker.Instruments{},
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	x.m = newMetrics(reg, x)
	// Histogram hooks before the first topic attaches (Instruments
	// contract): lag and blocked-wait distributions ride the same
	// struct the gauges read.
	x.bins.ObserveLag = x.m.observeLag
	x.bins.ObserveBlocked = x.m.observeBlocked
	x.m.registerCatalog(cat)
	return x
}

// Registry returns the metrics registry this executor reports into —
// Config.Registry when one was supplied, a private registry otherwise.
func (x *Executor) Registry() *obs.Registry { return x.m.reg }

// AttachFleet wires a coordinator's peer fleet into this executor's
// metric registry: per-peer pull latency histograms and func-backed
// pull/retry/reconnect counters. Call once at coordinator startup.
func (x *Executor) AttachFleet(fleet *shardrpc.Fleet) { x.m.registerFleet(fleet) }

// Stats returns a consistent-enough snapshot of the counters.
func (x *Executor) Stats() StatsSnapshot {
	return StatsSnapshot{
		Queries:                  x.queries.Load(),
		Streamed:                 x.streamed.Load(),
		Completed:                x.completed.Load(),
		CacheHits:                x.cacheHits.Load(),
		CacheMisses:              x.cacheMisses.Load(),
		Coalesced:                x.coalesced.Load(),
		CacheEntries:             x.cache.len(),
		Canceled:                 x.canceled.Load(),
		BadRequests:              x.badRequests.Load(),
		Failed:                   x.failed.Load(),
		Rejected:                 x.rejected.Load(),
		InFlight:                 x.inFlight.Load(),
		Queued:                   x.queued.Load(),
		Degraded:                 x.degraded.Load(),
		EngineRuns:               x.engineRuns.Load(),
		StreamsBrokered:          x.streamsBrokered.Load(),
		MidRunAttaches:           x.midRunAttaches.Load(),
		SlowSubscriberDrops:      x.slowDrops.Load(),
		StreamSubscribers:        x.bins.Subscribers.Load(),
		StreamPeakLag:            x.bins.PeakLag.Load(),
		StreamBlockedMicros:      x.bins.BlockedNanos.Load() / 1e3,
		TotalSumDepths:           x.totalSumDepths.Load(),
		TotalCombinations:        x.totalCombinations.Load(),
		TotalBoundUpdates:        x.totalBoundUpdates.Load(),
		TotalEngineMicros:        x.totalEngineMicros.Load(),
		RemoteStreamsOpened:      x.remoteOpened.Load(),
		ShardsPruned:             x.shardsPruned.Load(),
		RemoteRowsConsumed:       x.remoteConsumed.Load(),
		TotalSpilledCombinations: x.totalSpilled.Load(),
		TotalSpilledBytes:        x.totalSpilledBytes.Load(),
	}
}

// prepare runs the shared front half of every execution path: central
// validation and defaulting via api.Request.Normalize (with the server's
// K limit), translation into engine options, catalog resolution, and the
// dimensionality pre-check. The caller's request is never mutated —
// normalization happens on a private copy (callers may legally share one
// request across concurrent queries), which is returned for canonical
// cache keying. Client mistakes are tracked apart from Failed so the
// latter stays a server-health signal.
func (x *Executor) prepare(req *QueryRequest) (*QueryRequest, proxrank.Vector, proxrank.Options, []*Entry, *APIError) {
	// Shallow copy is enough: Normalize rewrites fields of the copy and
	// only ever replaces (never writes through) the Weights pointer.
	norm := *req
	query, opts, err := proxrank.OptionsFromRequest(&norm, api.Limits{MaxK: x.cfg.MaxK})
	if err != nil {
		x.badRequests.Add(1)
		return nil, nil, proxrank.Options{}, nil, asAPIError(err)
	}
	// Server-side engine tuning the wire request has no say over: where
	// (and whether) BufferSpill sessions overflow to disk.
	opts.SpillDir = x.cfg.SpillDir
	opts.SpillMemBytes = x.cfg.SpillMemBytes
	entries, err := x.cat.Resolve(norm.Relations)
	if err != nil {
		x.badRequests.Add(1)
		return nil, nil, proxrank.Options{}, nil, asAPIError(err)
	}
	for _, e := range entries {
		rel := e.Relation()
		if rel.Dim() != len(norm.Query) {
			x.badRequests.Add(1)
			return nil, nil, proxrank.Options{}, nil, apiErrorf(CodeBadRequest, "relation %q has dim %d, query has dim %d",
				rel.Name, rel.Dim(), len(norm.Query))
		}
	}
	return &norm, query, opts, entries, nil
}

// cacheKey is the canonical encoding of the normalized request (see
// api.Request.Canonical) suffixed with each resolved relation's catalog
// generation — so re-registering a name invalidates its entries — and
// shard count. Sharding does not change answers; the key carries it only
// as a defensive marker of the serving configuration. The generations
// align positionally with the request's relation list, which the
// canonical encoding already names.
func cacheKey(req *QueryRequest, entries []*Entry) string {
	canon := req.Canonical()
	var b strings.Builder
	b.Grow(len(canon) + 3 + 16*len(entries))
	b.WriteString(canon)
	b.WriteString("|g=")
	for _, e := range entries {
		b.WriteString(strconv.FormatUint(e.gen, 10))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(e.Shards()))
		b.WriteByte(',')
	}
	return b.String()
}

// Execute answers one query: validate and default through the api
// model, resolve the relations, consult the cache, coalesce concurrent
// identical misses into one engine run, wait for a worker slot (bounded
// by the query's deadline), run the engine with cancellation, record
// stats, and cache the outcome.
//
// The returned response may share its Results and Cost.Depths backing
// arrays with the executor's cache — treat it as read-only. Callers that
// need to mutate a response must copy those slices first.
func (x *Executor) Execute(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	x.queries.Add(1)
	o := x.beginObs(labelModeBatch, req)
	resp, err := x.execute(ctx, req, o)
	if resp != nil {
		o.noteDegraded(resp.Degraded, resp.ShardsMissing)
	}
	o.finish(req, err)
	if err == nil && req.Trace && resp != nil {
		// Attach on a shallow copy: the response may be shared with the
		// cache, and the trace describes this request alone.
		traced := *resp
		traced.Trace = o.trace()
		resp = &traced
	}
	return resp, err
}

// execute is the uninstrumented body of Execute; o records the phase
// spans and (for traced requests) carries the engine's trace recorder.
func (x *Executor) execute(ctx context.Context, req *QueryRequest, o *queryObs) (*QueryResponse, error) {
	norm, query, opts, entries, aerr := x.prepare(req)
	if aerr != nil {
		return nil, aerr
	}
	o.algo = norm.Algorithm
	o.phase(api.PhaseValidate)
	if o.rec != nil {
		opts.Tracer = o.rec
	}
	req = norm
	partial := req.Partial != api.PartialForbid
	if req.NoCache || !x.cache.enabled() {
		o.cache = api.CacheBypass
		ctx, cancel := x.applyDeadline(ctx, req)
		defer cancel()
		resp, err := x.run(ctx, query, opts, entries, "", false, partial)
		o.phase(api.PhaseEngine)
		return resp, err
	}
	key := cacheKey(req, entries)
	if cached, ok := x.cache.get(key); ok {
		x.cacheHits.Add(1)
		o.cache = api.CacheHit
		o.phase(api.PhaseCache)
		hit := *cached // shallow copy; cached value stays immutable
		hit.Cached = true
		return &hit, nil
	}
	x.cacheMisses.Add(1)
	o.cache = api.CacheMiss
	o.phase(api.PhaseCache)
	// The deadline is applied before the flight so a follower's wait is
	// bounded by its own requested timeout, not the leader's.
	ctx, cancel := x.applyDeadline(ctx, req)
	defer cancel()
	// Single-flight: identical concurrent misses run the engine once. The
	// leader executes; followers wait for its outcome. A leader failure is
	// not shared — its error may be specific to its own deadline — so each
	// waiting follower retries, one of them becoming the next leader.
	for {
		c, leader := x.flight.join(key)
		if leader {
			o.phase(api.PhaseFlight)
			finished := false
			// If a panic unwinds through the engine run, retire the flight
			// before it continues so followers are woken to retry instead
			// of waiting forever on a key that can never complete.
			defer func() {
				if !finished {
					x.flight.leave(key, c, nil, apiErrorf(CodeInternal, "query leader aborted"))
				}
			}()
			resp, err := x.run(ctx, query, opts, entries, key, true, partial)
			o.phase(api.PhaseEngine)
			finished = true
			x.flight.leave(key, c, resp, err)
			return resp, err
		}
		select {
		case <-c.done:
			if c.err != nil {
				continue
			}
			// Partial is a per-request policy, not part of the flight key:
			// a forbid follower that coalesced onto an allow leader whose
			// run degraded gets the failure it asked for, not the leader's
			// partial answer.
			if c.resp.Degraded && !partial {
				return nil, degradedForbidden(c.resp)
			}
			x.coalesced.Add(1)
			o.cache = api.CacheCoalesced
			o.phase(api.PhaseFlight)
			hit := *c.resp // shallow copy, like a cache hit
			hit.Cached = true
			return &hit, nil
		case <-ctx.Done():
			x.canceled.Add(1)
			return nil, asAPIError(ctx.Err())
		}
	}
}

// ExecuteStream answers one query incrementally: result events reach the
// sink as the engine certifies each combination — the first one long
// before the run completes — followed by exactly one summary event. The
// collected results are byte-identical to what Execute returns for the
// same request: both paths share validation, the canonical cache key,
// the result cache (a hit or a coalesced follower replays the cached
// response as events, summary marked cached), and the single-flight
// group.
//
// Validation and resolution failures are returned before the sink sees
// any event, so transports can still answer with a plain error; once
// events have flowed, a failure is returned after them and the transport
// appends it in-band.
//
// Delivery is brokered (unless Config.StreamBuffer is negative): the
// leader's engine runs to completion at engine speed under its own
// deadline, publishing events into a bounded per-query topic and
// releasing its worker slot when enumeration finishes, while the
// leader's sink and any coalesced followers drain the topic at their own
// pace. A follower that arrives mid-run attaches to the live topic —
// replaying the certified prefix, then tailing live events — so its
// time-to-first-event does not depend on how fast any other consumer
// reads. A subscriber that falls a full buffer behind is handled by the
// overflow policy (Config.StreamOverflow, overridable per request):
// blocked-then-dropped or dropped immediately, with the drop surfacing
// as a CodeOverloaded error on that subscriber only.
//
// NoCache forks a private, legacy-style run: the engine advances at the
// sink's pace, a sink failure aborts it, and the work is discarded — the
// escape hatch for a caller that wants strict engine-consumer coupling.
// A server whose result cache is disabled still brokers delivery: its
// streams run as private brokered runs (no coalescing, nothing stored,
// client disconnect aborts the engine) with the same slot-release and
// bounded-slow-sink guarantees.
func (x *Executor) ExecuteStream(ctx context.Context, req *QueryRequest, sink EventSink) error {
	x.queries.Add(1)
	x.streamed.Add(1)
	o := x.beginObs(labelModeStream, req)
	// Wrap the sink so the first delivered event stamps TTFE; the inner
	// path never sees the raw sink.
	wrapped := func(ev api.ResultEvent) error {
		o.firstEvent()
		if ev.Type == api.EventSummary && ev.Summary != nil {
			o.noteDegraded(ev.Summary.Degraded, ev.Summary.ShardsMissing)
		}
		return sink(ev)
	}
	err := x.executeStream(ctx, req, o, wrapped)
	o.finish(req, err)
	if err == nil && req.Trace {
		// The terminal trace event rides this subscriber's own sink after
		// its summary — it is never published into the shared topic, so
		// untraced consumers of the same run see an unchanged stream.
		if serr := sink(api.ResultEvent{Type: api.EventTrace, Trace: o.trace()}); serr != nil {
			x.canceled.Add(1)
			return apiErrorf(CodeCanceled, "stream sink: %v", serr)
		}
	}
	return err
}

// executeStream is the uninstrumented body of ExecuteStream; o records
// the phase spans and carries the trace recorder for traced requests.
func (x *Executor) executeStream(ctx context.Context, req *QueryRequest, o *queryObs, sink EventSink) error {
	norm, query, opts, entries, aerr := x.prepare(req)
	if aerr != nil {
		return aerr
	}
	o.algo = norm.Algorithm
	o.phase(api.PhaseValidate)
	if o.rec != nil {
		opts.Tracer = o.rec
	}
	req = norm
	partial := req.Partial != api.PartialForbid
	if req.NoCache || !x.cache.enabled() {
		o.cache = api.CacheBypass
		ctx, cancel := x.applyDeadline(ctx, req)
		defer cancel()
		if req.NoCache || !x.brokerEnabled() {
			// NoCache is the documented opt-out into strict coupling;
			// a disabled broker couples everything.
			_, err := x.runStream(ctx, query, opts, entries, "", false, partial, sink)
			o.phase(api.PhaseEngine)
			return err
		}
		// Cache disabled but broker on: a private brokered run — no
		// flight, nothing stored, but the delivery guarantees (slot
		// released at enumeration end, slow sink bounded by the overflow
		// policy) still hold.
		err := x.leadBrokered(ctx, req, query, opts, entries, "", nil, sink)
		o.phase(api.PhaseDrain)
		return err
	}
	key := cacheKey(req, entries)
	if cached, ok := x.cache.get(key); ok {
		x.cacheHits.Add(1)
		o.cache = api.CacheHit
		o.phase(api.PhaseCache)
		err := replayResponse(cached, sink)
		o.phase(api.PhaseDrain)
		return err
	}
	x.cacheMisses.Add(1)
	o.cache = api.CacheMiss
	o.phase(api.PhaseCache)
	ctx, cancel := x.applyDeadline(ctx, req)
	defer cancel()
	for {
		c, leader := x.flight.join(key)
		if leader {
			o.phase(api.PhaseFlight)
			if x.brokerEnabled() {
				// The leader's drain overlaps its own engine run, so the
				// span from here to completion is delivery time.
				err := x.leadBrokered(ctx, req, query, opts, entries, key, c, sink)
				o.phase(api.PhaseDrain)
				return err
			}
			finished := false
			defer func() {
				if !finished {
					x.flight.leave(key, c, nil, apiErrorf(CodeInternal, "query leader aborted"))
				}
			}()
			resp, err := x.runStream(ctx, query, opts, entries, key, true, partial, sink)
			o.phase(api.PhaseEngine)
			finished = true
			x.flight.leave(key, c, resp, err)
			return err
		}
		// A live topic means a brokered stream leader is mid-run: attach
		// and consume independently instead of waiting for it to finish.
		// A forbid request skips mid-run attachment: the leader's run may
		// yet degrade, and this subscriber must not deliver a partial
		// prefix — it waits for the settled outcome below instead.
		if topic := c.topic.Load(); topic != nil && partial {
			x.coalesced.Add(1)
			x.midRunAttaches.Add(1)
			o.cache = api.CacheCoalesced
			o.phase(api.PhaseFlight)
			delivered := 0
			counting := func(ev api.ResultEvent) error {
				delivered++
				return sink(ev)
			}
			err := x.drainSub(ctx, topic.Subscribe(x.subPolicy(req)), counting, true)
			var lf leaderFailedError
			if errors.As(err, &lf) {
				if delivered == 0 {
					// The leader failed before this follower saw anything:
					// like a done-channel follower, retry — a leader error
					// may be specific to its own deadline, and this caller
					// may become the next leader. Undo the share counters;
					// nothing was shared.
					x.coalesced.Add(-1)
					x.midRunAttaches.Add(-1)
					o.cache = api.CacheMiss
					continue
				}
				return lf.err
			}
			o.phase(api.PhaseDrain)
			return err
		}
		select {
		case <-c.done:
			if c.err != nil {
				continue
			}
			if c.resp.Degraded && !partial {
				return degradedForbidden(c.resp)
			}
			x.coalesced.Add(1)
			o.cache = api.CacheCoalesced
			o.phase(api.PhaseFlight)
			err := replayResponse(c.resp, sink)
			o.phase(api.PhaseDrain)
			return err
		case <-ctx.Done():
			x.canceled.Add(1)
			return asAPIError(ctx.Err())
		}
	}
}

// brokerEnabled reports whether stream delivery is decoupled from the
// engine.
func (x *Executor) brokerEnabled() bool { return x.cfg.StreamBuffer > 0 }

// subPolicy maps the request's overflow choice (or the server default)
// onto the broker's policy enum.
func (x *Executor) subPolicy(req *QueryRequest) broker.Policy {
	choice := req.Overflow
	if choice == "" {
		choice = x.cfg.StreamOverflow
	}
	if choice == api.OverflowDrop {
		return broker.PolicyDrop
	}
	return broker.PolicyBlock
}

// leadBrokered is the brokered streaming leader: set up the engine
// synchronously (so admission and setup failures still surface before
// any event), then run it in a goroutine that publishes into the topic,
// caches the response, retires the flight, and releases the worker slot
// the moment enumeration finishes — all independent of how fast anyone
// reads. The caller's half just drains its own subscription into its
// sink.
func (x *Executor) leadBrokered(ctx context.Context, req *QueryRequest, query proxrank.Vector, opts proxrank.Options, entries []*Entry, key string, c *flightCall, sink EventSink) error {
	topic := broker.New[api.ResultEvent](x.cfg.StreamBuffer, x.cfg.StreamBlockTimeout)
	topic.Attach(x.bins)
	// A coalescable run (c != nil) is detached from the leader's
	// cancellation: a leader whose client goes away must not abort work
	// that followers and the cache will consume. This is a deliberate
	// trade-off — a run every subscriber has abandoned still finishes
	// and fills the cache (the next identical query is then free), at
	// the cost of holding its slot until completion. Detachment removes
	// the client disconnect as a backstop, so a detached run always gets
	// a deadline ceiling: when neither the request nor the server
	// configures one, MaxTimeout (always set) bounds it — a blocking
	// source must not pin a worker slot forever. A private run (cache
	// disabled: c == nil, no flight, nothing stored) keeps the client's
	// cancellation: its work serves exactly one caller.
	base := ctx
	if c != nil {
		base = context.WithoutCancel(ctx)
	}
	engCtx, engCancel := x.applyDeadline(base, req)
	if req.TimeoutMillis == 0 && x.cfg.DefaultTimeout <= 0 {
		engCancel()
		engCtx, engCancel = context.WithTimeout(base, x.cfg.MaxTimeout)
	}
	// settle publishes the run's terminal outcome exactly once: retire
	// the flight (when coalescable) and poison or complete the topic.
	// Idempotent, and never called concurrently: the setup half only
	// settles before the engine goroutine exists, the goroutine after.
	settled := false
	settle := func(resp *QueryResponse, aerr *APIError) {
		if settled {
			return
		}
		settled = true
		if c != nil {
			var err error
			if aerr != nil {
				err = aerr
			}
			x.flight.leave(key, c, resp, err)
		}
		if aerr != nil {
			topic.Close(aerr)
		} else {
			topic.Close(nil)
		}
	}
	handled := false
	fail := func(aerr *APIError) error {
		handled = true
		engCancel()
		settle(nil, aerr)
		return aerr
	}
	// If a panic unwinds through setup, retire the flight and poison the
	// topic so neither followers nor subscribers wait on a key that can
	// never complete.
	defer func() {
		if !handled {
			fail(apiErrorf(CodeInternal, "query leader aborted"))
		}
	}()
	q, missing, release, aerr := x.openSession(ctx, query, opts, entries, req.Partial != api.PartialForbid)
	if aerr != nil {
		return fail(aerr)
	}

	x.engineRuns.Add(1)
	x.streamsBrokered.Add(1)
	handled = true // the engine goroutine owns flight retirement from here
	sub := topic.Subscribe(x.subPolicy(req))
	if c != nil {
		// Published before the engine starts: from here on followers
		// attach mid-run.
		c.topic.Store(topic)
	}
	go func() {
		defer func() {
			release()
			engCancel()
			// The goroutine is detached from any request handler, so an
			// engine panic must be contained here: without recover() it
			// would kill the whole process, not one query. settle is
			// idempotent, so the normal path's outcome is never
			// overwritten — this only retires the flight and poisons the
			// topic when the run really died mid-way.
			if r := recover(); r != nil {
				x.failed.Add(1)
				settle(nil, apiErrorf(CodeInternal, "stream leader panicked: %v", r))
			}
		}()
		resp, runErr := x.publishRun(engCtx, q, opts, entries, missing, topic)
		var aerr *APIError
		switch {
		case runErr == nil:
			// Degraded responses are never cached (the shard may come
			// back any moment); followers still share this run's outcome
			// through the flight and re-check their own partial policy.
			if c != nil && !resp.Degraded {
				x.cache.put(key, resp)
			}
		case c != nil:
			aerr = x.classifyRunError(runErr)
		default:
			// A private run's cancellation is the client's own (the engine
			// context is coupled to it) and the client's drain already
			// counted it; only genuine failures count here.
			aerr = asAPIError(runErr)
			if aerr.Code != CodeTimeout && aerr.Code != CodeCanceled {
				x.failed.Add(1)
			}
		}
		settle(resp, aerr)
	}()
	err := x.drainSub(ctx, sub, sink, false)
	var lf leaderFailedError
	if errors.As(err, &lf) {
		// The leader's caller reports its own run's failure plainly.
		return lf.err
	}
	return err
}

// publishRun drives the engine to completion at engine speed, publishing
// every certified result (and the DNF best-effort tail, matching the
// batch contract) plus the trailing summary into the topic. Overflowing
// subscribers are dropped by the topic per their policy; the run itself
// never waits on a consumer beyond that consumer's cumulative block
// budget. An engine failure comes back raw — the caller decides how to
// classify and count it.
func (x *Executor) publishRun(ctx context.Context, q *proxrank.Query, opts proxrank.Options, entries []*Entry, missing func() []api.MissingShard, topic *streamTopic) (*QueryResponse, error) {
	var combos []proxrank.Combination
	publish := func(ev api.ResultEvent) {
		if n := topic.Publish(ev); n > 0 {
			x.slowDrops.Add(int64(n))
		}
	}
	gap := x.m.newGapObserver(opts.Algorithm)
	dnf, err := pullCombinations(ctx, q, opts.K, func(c proxrank.Combination) error {
		combos = append(combos, c)
		gap()
		wire := wireCombination(c, entries)
		publish(api.ResultEvent{Type: api.EventResult, Rank: len(combos), Result: &wire})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := proxrank.Result{
		Combinations: combos,
		Threshold:    q.Threshold(),
		DNF:          dnf,
		Stats:        q.Stats(),
	}
	resp := buildResponse(res, entries)
	x.stampDegraded(resp, missing())
	x.recordOutcome(res.Stats)
	publish(api.ResultEvent{Type: api.EventSummary, Summary: &api.Summary{
		Count:            len(resp.Results),
		DNF:              resp.DNF,
		Cached:           false,
		Cost:             resp.Cost,
		Degraded:         resp.Degraded,
		ShardsMissing:    resp.ShardsMissing,
		ResultsCertified: resp.ResultsCertified,
	}})
	return resp, nil
}

// drainSub delivers one subscription to one sink at the sink's own pace
// — the consumer half of brokered delivery. markCached rewrites the
// summary on a copy (events are shared across subscribers) the way
// replayResponse marks a follower's replay.
func (x *Executor) drainSub(ctx context.Context, sub *broker.Sub[api.ResultEvent], sink EventSink, markCached bool) error {
	// Detach on every exit so an abandoned subscription never constrains
	// the engine.
	defer sub.Cancel()
	for {
		ev, err := sub.Next(ctx)
		switch {
		case err == nil:
			if markCached && ev.Type == api.EventSummary && ev.Summary != nil {
				s := *ev.Summary
				s.Cached = true
				ev.Summary = &s
			}
			if serr := sink(ev); serr != nil {
				x.canceled.Add(1)
				return apiErrorf(CodeCanceled, "stream sink: %v", serr)
			}
		case errors.Is(err, broker.ErrDone):
			return nil
		case errors.Is(err, broker.ErrSlowSubscriber):
			return apiErrorf(CodeOverloaded, "stream consumer too slow: fell more than %d events behind the engine", x.cfg.StreamBuffer)
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			x.canceled.Add(1)
			return asAPIError(err)
		default:
			// The topic's terminal error: the engine side already recorded
			// and classified it. Wrapped so a follower that saw no events
			// yet can retry instead of inheriting the leader's failure.
			return leaderFailedError{asAPIError(err)}
		}
	}
}

// leaderFailedError relays a brokered leader's terminal failure to a
// subscriber. The leader's own caller unwraps it; a follower that has
// delivered nothing yet treats it as a cue to retry the flight.
type leaderFailedError struct{ err *APIError }

func (e leaderFailedError) Error() string { return e.err.Error() }
func (e leaderFailedError) Unwrap() error { return e.err }

// replayResponse streams an already-computed response as events, summary
// marked cached — the follower/cache-hit half of ExecuteStream. The
// degraded fields carry over (reachable only via the flight: degraded
// responses are never cached).
func replayResponse(resp *QueryResponse, sink EventSink) error {
	for i := range resp.Results {
		ev := api.ResultEvent{Type: api.EventResult, Rank: i + 1, Result: &resp.Results[i]}
		if err := sink(ev); err != nil {
			return asAPIError(err)
		}
	}
	return sink(api.ResultEvent{Type: api.EventSummary, Summary: &api.Summary{
		Count:            len(resp.Results),
		DNF:              resp.DNF,
		Cached:           true,
		Cost:             resp.Cost,
		Degraded:         resp.Degraded,
		ShardsMissing:    resp.ShardsMissing,
		ResultsCertified: resp.ResultsCertified,
	}})
}

// degradedForbidden is the failure a partial=forbid request gets when
// the flight outcome it shared completed degraded: the results exist,
// but the caller asked for all shards or nothing.
func degradedForbidden(resp *QueryResponse) *APIError {
	return apiErrorf(CodeUnavailable,
		"query degraded: %d shard(s) had no reachable replica and the request forbids partial results",
		len(resp.ShardsMissing))
}

// applyDeadline wraps ctx with the query's effective deadline: the
// clamped client-requested TimeoutMillis, else the configured default.
// The returned cancel is never nil.
func (x *Executor) applyDeadline(ctx context.Context, req *QueryRequest) (context.Context, context.CancelFunc) {
	if req.TimeoutMillis > 0 {
		// Clamp in milliseconds before converting: a huge TimeoutMillis
		// would overflow the Duration multiply into a negative (instantly
		// expired) deadline.
		millis := req.TimeoutMillis
		if maxMillis := x.cfg.MaxTimeout.Milliseconds(); millis > maxMillis {
			millis = maxMillis
		}
		return context.WithTimeout(ctx, time.Duration(millis)*time.Millisecond)
	}
	if x.cfg.DefaultTimeout > 0 {
		return context.WithTimeout(ctx, x.cfg.DefaultTimeout)
	}
	return ctx, func() {}
}

// acquireSlot claims a worker slot, bounded by the query's deadline; a
// query that cannot start before its deadline is shed rather than queued
// forever. A query that would have to wait is first admission-checked
// against the queue-depth watermark (Config.AdmissionQueue): past it the
// query is shed immediately with CodeOverloaded — a fast 503 the client
// can retry elsewhere beats queueing into a deadline it cannot meet.
// The release func is nil exactly when an error is returned.
func (x *Executor) acquireSlot(ctx context.Context) (func(), *APIError) {
	claim := func() func() {
		x.inFlight.Add(1)
		return func() {
			x.inFlight.Add(-1)
			<-x.slots
		}
	}
	select {
	case x.slots <- struct{}{}:
		return claim(), nil
	default:
	}
	// Every slot is busy: this query queues. Shed it at the watermark —
	// the count below includes this query, so depth > limit means the
	// queue was already full when it arrived.
	if limit := x.cfg.AdmissionQueue; limit > 0 {
		if depth := x.queued.Add(1); depth > int64(limit) {
			x.queued.Add(-1)
			x.rejected.Add(1)
			return nil, apiErrorf(CodeOverloaded, "server overloaded: %d queries already queued (limit %d)", depth-1, limit)
		}
	} else {
		x.queued.Add(1)
	}
	defer x.queued.Add(-1)
	select {
	case x.slots <- struct{}{}:
		return claim(), nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.Canceled) {
			// The caller went away while queued — that is cancellation,
			// not overload; counting it as rejected would fake a capacity
			// signal out of ordinary client disconnects.
			x.canceled.Add(1)
			return nil, asAPIError(ctx.Err())
		}
		x.rejected.Add(1)
		return nil, apiErrorf(CodeOverloaded, "no worker available before the deadline: %v", ctx.Err())
	}
}

// recordOutcome folds one finished engine run into the counters and the
// per-run engine cost distributions.
func (x *Executor) recordOutcome(stats proxrank.Stats) {
	x.completed.Add(1)
	x.totalSumDepths.Add(int64(stats.SumDepths))
	x.totalCombinations.Add(stats.CombinationsFormed)
	x.totalBoundUpdates.Add(stats.BoundUpdates)
	x.totalEngineMicros.Add(stats.TotalTime.Microseconds())
	x.totalSpilled.Add(stats.SpilledCombinations)
	x.totalSpilledBytes.Add(stats.SpilledBytes)
	x.m.sumDepths.Observe(float64(stats.SumDepths))
	if stats.CombinationsFormed > 0 {
		x.m.pruneRatio.Observe(float64(stats.CombinationsPruned) / float64(stats.CombinationsFormed))
	}
}

// classifyRunError records the failure counters for an engine-run error
// and returns its API form.
func (x *Executor) classifyRunError(err error) *APIError {
	ae := asAPIError(err)
	if ae.Code == CodeTimeout || ae.Code == CodeCanceled {
		x.canceled.Add(1)
	} else {
		x.failed.Add(1)
	}
	return ae
}

// stampDegraded marks resp degraded when the run abandoned shards:
// Degraded, the missing shard list, and the certified count over the
// data that was actually reachable (zero when a DNF cap also cut the
// surviving-shard certification short). A no-op — and no counter bump —
// when nothing was missing.
func (x *Executor) stampDegraded(resp *QueryResponse, missing []api.MissingShard) {
	if len(missing) == 0 {
		return
	}
	resp.Degraded = true
	resp.ShardsMissing = missing
	if !resp.DNF {
		resp.ResultsCertified = len(resp.Results)
	}
	x.degraded.Add(1)
}

// run executes the engine for one resolved query under an
// already-deadlined context: acquire a worker slot, fan out per-shard
// source creation, run with cancellation, record stats, and (when store
// is set) cache the response under key. Degraded responses — partial
// mode let a dead shard drop out — are stamped but never cached: the
// shard may come back any moment, and a cached degraded answer would
// outlive the outage.
func (x *Executor) run(ctx context.Context, query proxrank.Vector, opts proxrank.Options, entries []*Entry, key string, store, partial bool) (*QueryResponse, error) {
	if err := ctx.Err(); err != nil {
		x.canceled.Add(1)
		return nil, asAPIError(err)
	}
	release, aerr := x.acquireSlot(ctx)
	if aerr != nil {
		return nil, aerr
	}
	defer release()

	sources, missing, cleanup, aerr := x.buildSources(ctx, opts, query, entries, partial)
	if aerr != nil {
		x.failed.Add(1)
		return nil, aerr
	}
	defer cleanup()

	x.engineRuns.Add(1)
	res, err := proxrank.TopKFromSourcesContext(ctx, query, sources, opts)
	if err != nil {
		return nil, x.classifyRunError(err)
	}

	resp := buildResponse(res, entries)
	x.stampDegraded(resp, missing())
	x.recordOutcome(res.Stats)
	if store && !resp.Degraded {
		x.cache.put(key, resp)
	}
	return resp, nil
}

// runStream is run's incremental twin: the same slot, source fan-out,
// stats, and caching discipline, but the engine is driven through a
// Query session and every certified combination is handed to the sink
// the moment it exists. A capped run streams its best-effort tail too
// (so collected results match the batch DNF response) and flags DNF on
// the summary.
func (x *Executor) runStream(ctx context.Context, query proxrank.Vector, opts proxrank.Options, entries []*Entry, key string, store, partial bool, sink EventSink) (*QueryResponse, error) {
	if err := ctx.Err(); err != nil {
		x.canceled.Add(1)
		return nil, asAPIError(err)
	}
	q, missing, release, aerr := x.openSession(ctx, query, opts, entries, partial)
	if aerr != nil {
		return nil, aerr
	}
	defer release()

	x.engineRuns.Add(1)
	var combos []proxrank.Combination
	gap := x.m.newGapObserver(opts.Algorithm)
	dnf, err := pullCombinations(ctx, q, opts.K, func(c proxrank.Combination) error {
		combos = append(combos, c)
		gap()
		wire := wireCombination(c, entries)
		return sink(api.ResultEvent{Type: api.EventResult, Rank: len(combos), Result: &wire})
	})
	if err != nil {
		var serr sinkError
		if errors.As(err, &serr) {
			x.canceled.Add(1)
			return nil, apiErrorf(CodeCanceled, "stream sink: %v", serr.err)
		}
		return nil, x.classifyRunError(err)
	}

	res := proxrank.Result{
		Combinations: combos,
		Threshold:    q.Threshold(),
		DNF:          dnf,
		Stats:        q.Stats(),
	}
	resp := buildResponse(res, entries)
	x.stampDegraded(resp, missing())
	x.recordOutcome(res.Stats)
	if store && !resp.Degraded {
		x.cache.put(key, resp)
	}
	if serr := sink(api.ResultEvent{Type: api.EventSummary, Summary: &api.Summary{
		Count:            len(resp.Results),
		DNF:              resp.DNF,
		Cached:           false,
		Cost:             resp.Cost,
		Degraded:         resp.Degraded,
		ShardsMissing:    resp.ShardsMissing,
		ResultsCertified: resp.ResultsCertified,
	}}); serr != nil {
		return resp, apiErrorf(CodeCanceled, "stream sink: %v", serr)
	}
	return resp, nil
}

// openSession is the setup half shared by both streaming delivery paths
// (sink-coupled runStream and brokered leadBrokered): claim a worker
// slot, open the per-relation sources, and build the bounded query
// session. On error the slot is already released and the failure
// counters recorded; on success the caller owns release.
//
// The session buffer is bounded to K exactly like the batch path — a
// streamed query delivers at most K results (certified prefix plus DNF
// drain) — so peak memory is O(K) with byte-identical events.
// Validation guarantees an explicit client MaxBuffered is >= K.
func (x *Executor) openSession(ctx context.Context, query proxrank.Vector, opts proxrank.Options, entries []*Entry, partial bool) (*proxrank.Query, func() []api.MissingShard, func(), *APIError) {
	release, aerr := x.acquireSlot(ctx)
	if aerr != nil {
		return nil, nil, nil, aerr
	}
	sources, missing, cleanup, aerr := x.buildSources(ctx, opts, query, entries, partial)
	if aerr != nil {
		release()
		x.failed.Add(1)
		return nil, nil, nil, aerr
	}
	q, err := proxrank.NewQuerySources(query, sources, opts.BoundedToK())
	if err != nil {
		cleanup()
		release()
		x.failed.Add(1)
		return nil, nil, nil, asAPIError(err)
	}
	done := func() {
		cleanup()
		release()
	}
	return q, missing, done, nil
}

// sinkError marks an emit failure inside pullCombinations, so callers
// can tell a consumer that went away apart from an engine failure.
type sinkError struct{ err error }

func (e sinkError) Error() string { return e.err.Error() }

// pullCombinations drives a query session to at most k results, handing
// each to emit the moment it is certified. A capped run delivers the
// uncertified best-effort tail in report order too — matching the batch
// DNF contract — and returns dnf true. The error is a sinkError if emit
// failed, or the engine's own failure otherwise; both streaming delivery
// paths (sink-coupled and brokered) share this one loop, which is what
// keeps their event sequences identical.
func pullCombinations(ctx context.Context, q *proxrank.Query, k int, emit func(proxrank.Combination) error) (bool, error) {
	emitted := 0
	send := func(c proxrank.Combination) error {
		emitted++
		if err := emit(c); err != nil {
			return sinkError{err}
		}
		return nil
	}
	for emitted < k {
		batch, err := q.NextContext(ctx, 1)
		for _, c := range batch {
			if serr := send(c); serr != nil {
				return false, serr
			}
		}
		switch {
		case err == nil:
		case errors.Is(err, proxrank.ErrStreamDone):
			return false, nil
		case errors.Is(err, proxrank.ErrDNF):
			for _, c := range q.DrainBest(k - emitted) {
				if serr := send(c); serr != nil {
					return false, serr
				}
			}
			return true, nil
		default:
			return false, err
		}
	}
	return false, nil
}

// wireAccess maps an engine access kind to its wire name.
func wireAccess(kind proxrank.AccessKind) string {
	if kind == proxrank.ScoreAccess {
		return api.AccessScore
	}
	return api.AccessDistance
}

// buildSources opens one engine stream per relation: every shard of every
// relation gets its ordered source, creation fans out across a bounded
// pool when the entries hold more than one shard in total, and each
// relation's shard streams are merged back into its canonical order. The
// dim pre-check in prepare already rules out the only documented source
// failure; anything surfacing here is a server-side problem, which the
// caller reports as internal.
//
// Remote entries (coordinator mode) resolve each shard to a
// shardrpc.RemoteSource — constructed lazily, so nothing touches the
// network here — and merge them with the same k-way merge local shards
// use. partial puts every remote source in partial mode: a shard whose
// every replica is unreachable ends its stream early (and is reported by
// the returned missing collector) instead of failing the query. The
// returned cleanup must run once the engine is done with the sources: it
// releases remote connections and settles the pruning and over-fetch
// accounting (a remote source the merge never opened is a pruned shard;
// the rows it took from the others are the consumed side of rows
// fetched ÷ rows consumed). It is always
// non-nil, also on error. missing must be called by the goroutine that
// drove the engine, after the run finishes and before the sources are
// discarded.
func (x *Executor) buildSources(ctx context.Context, opts proxrank.Options, query proxrank.Vector, entries []*Entry, partial bool) ([]proxrank.Source, func() []api.MissingShard, func(), *APIError) {
	var remotes []*shardrpc.RemoteSource
	missing := func() []api.MissingShard {
		var out []api.MissingShard
		for _, rs := range remotes {
			if rs.Missing() {
				out = append(out, api.MissingShard{Relation: rs.RelationName(), Shard: rs.Shard()})
			}
		}
		return out
	}
	cleanup := func() {
		var opened, pruned, consumed int64
		for _, rs := range remotes {
			if rs.Opened() {
				opened++
			} else {
				pruned++
			}
			consumed += int64(rs.Consumed())
			rs.Close()
		}
		x.remoteOpened.Add(opened)
		x.shardsPruned.Add(pruned)
		x.remoteConsumed.Add(consumed)
	}

	type job struct{ rel, shard int }
	var jobs []job
	perRel := make([][]proxrank.Source, len(entries))
	sources := make([]proxrank.Source, len(entries))
	for i, e := range entries {
		if rr := e.Remote(); rr != nil {
			inputs := make([]relation.KeyedSource, rr.Shards)
			for s := 0; s < rr.Shards; s++ {
				rs, err := shardrpc.OpenRemoteShard(ctx, e.Relation(), rr, s, wireAccess(opts.Access), query, 0)
				if err != nil {
					cleanup()
					return nil, nil, func() {}, apiErrorf(CodeInternal, "%v", err)
				}
				rs.SetPartial(partial)
				remotes = append(remotes, rs)
				inputs[s] = rs
			}
			merged, err := relation.NewMergedSource(e.Relation(), opts.Access, inputs)
			if err != nil {
				cleanup()
				return nil, nil, func() {}, apiErrorf(CodeInternal, "%v", err)
			}
			if x.wrapSource != nil {
				sources[i] = x.wrapSource(merged)
			} else {
				sources[i] = merged
			}
			continue
		}
		n := e.Shards()
		perRel[i] = make([]proxrank.Source, n)
		for s := 0; s < n; s++ {
			jobs = append(jobs, job{rel: i, shard: s})
		}
	}
	open := func(j job) error {
		e := entries[j.rel]
		src, err := e.Sharded().ShardSource(j.shard, opts.Access, query, nil, true)
		if err != nil {
			return err
		}
		perRel[j.rel][j.shard] = src
		return nil
	}
	fail := func(err error) ([]proxrank.Source, func() []api.MissingShard, func(), *APIError) {
		cleanup()
		return nil, nil, func() {}, apiErrorf(CodeInternal, "%v", err)
	}
	// Opening an in-memory shard source is cheap (a cursor or an O(1)
	// traversal setup), so the pool only pays for itself on wide fan-outs;
	// below the threshold a sequential loop is strictly faster than
	// spawning goroutines per query.
	const fanOutThreshold = 16
	if workers := min(x.cfg.Workers, len(jobs)); workers > 1 && len(jobs) >= fanOutThreshold {
		feed := make(chan job)
		var wg sync.WaitGroup
		var firstErr atomic.Pointer[error]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range feed {
					if err := open(j); err != nil {
						firstErr.CompareAndSwap(nil, &err)
					}
				}
			}()
		}
		for _, j := range jobs {
			feed <- j
		}
		close(feed)
		wg.Wait()
		if errp := firstErr.Load(); errp != nil {
			return fail(*errp)
		}
	} else {
		for _, j := range jobs {
			if err := open(j); err != nil {
				return fail(err)
			}
		}
	}
	for i, e := range entries {
		if e.IsRemote() {
			continue // already merged above
		}
		merged, err := e.Sharded().Merge(perRel[i])
		if err != nil {
			return fail(err)
		}
		if x.wrapSource != nil {
			merged = x.wrapSource(merged)
		}
		sources[i] = merged
	}
	return sources, missing, cleanup, nil
}

// wireCombination converts one engine combination into its wire form.
func wireCombination(c proxrank.Combination, entries []*Entry) ResultCombination {
	rc := ResultCombination{Score: c.Score, Tuples: make([]ResultTuple, len(c.Tuples))}
	for j, t := range c.Tuples {
		rc.Tuples[j] = ResultTuple{
			Relation: entries[j].Relation().Name,
			ID:       t.ID,
			Score:    t.Score,
			Vec:      []float64(t.Vec),
			Attrs:    t.Attrs,
		}
	}
	return rc
}

// buildResponse converts an engine result into the wire form.
func buildResponse(res proxrank.Result, entries []*Entry) *QueryResponse {
	out := &QueryResponse{
		Results: make([]ResultCombination, len(res.Combinations)),
		DNF:     res.DNF,
		Cost: QueryCost{
			SumDepths:           res.Stats.SumDepths,
			Depths:              res.Stats.Depths,
			Combinations:        res.Stats.CombinationsFormed,
			BoundUpdates:        res.Stats.BoundUpdates,
			QPSolves:            res.Stats.QPSolves,
			ElapsedMicros:       res.Stats.TotalTime.Microseconds(),
			SpilledCombinations: res.Stats.SpilledCombinations,
			SpilledBytes:        res.Stats.SpilledBytes,
		},
	}
	if t := res.Threshold; !math.IsInf(t, 0) && !math.IsNaN(t) {
		out.Cost.Threshold = &t
	}
	for i, c := range res.Combinations {
		out.Results[i] = wireCombination(c, entries)
	}
	return out
}
