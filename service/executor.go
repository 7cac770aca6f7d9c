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
	// consumer before the overflow policy intervenes (0 =
	// DefaultStreamBuffer).
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
	// QueryRequest is the JSON body of POST /v1/query.
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
// an error ends that consumer's stream; the executor treats it as the
// caller going away (CodeCanceled).
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
	// StreamsBrokered counts streaming leaders: runs started by a stream
	// caller (every run is brokered, whoever starts it).
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
// (Execute) and streaming (ExecuteStream) callers are two kinds of
// consumer of one brokered engine run (see serve), so identical
// concurrent queries coalesce across consumption models. It is safe for
// concurrent use.
type Executor struct {
	cat    *Catalog
	cfg    Config
	slots  chan struct{}
	cache  *resultCache
	flight *flightGroup

	// m is the metric instrument set; bins the broker instruments every
	// run's topic attaches, so delivery health aggregates across runs.
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
	if cfg.StreamBuffer <= 0 {
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
		flight: &flightGroup{calls: make(map[string]*flightCall)},
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
// cache keying.
func (x *Executor) prepare(req *QueryRequest) (*QueryRequest, proxrank.Vector, proxrank.Options, []*Entry, *APIError) {
	// Shallow copy is enough: Normalize rewrites fields of the copy and
	// only ever replaces (never writes through) the Weights pointer.
	norm := *req
	query, opts, err := proxrank.OptionsFromRequest(&norm, api.Limits{MaxK: x.cfg.MaxK})
	if err != nil {
		return nil, nil, proxrank.Options{}, nil, asAPIError(err)
	}
	// Server-side engine tuning the wire request has no say over: where
	// (and whether) BufferSpill sessions overflow to disk.
	opts.SpillDir = x.cfg.SpillDir
	opts.SpillMemBytes = x.cfg.SpillMemBytes
	entries, err := x.cat.Resolve(norm.Relations)
	if err != nil {
		return nil, nil, proxrank.Options{}, nil, asAPIError(err)
	}
	for _, e := range entries {
		rel := e.Relation()
		if rel.Dim() != len(norm.Query) {
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

// Execute answers one query as a batch: it takes the one path every
// query takes (serve) and waits for the run's settled response.
//
// The returned response may share its Results and Cost.Depths backing
// arrays with the executor's cache — treat it as read-only. Callers that
// need to mutate a response must copy those slices first.
func (x *Executor) Execute(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	x.queries.Add(1)
	o := x.beginObs(labelModeBatch, req)
	resp, err := x.serve(ctx, req, o, nil)
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

// ExecuteStream answers one query incrementally: result events reach the
// sink as the engine certifies each combination — the first one long
// before the run completes — followed by exactly one summary event. The
// collected results are byte-identical to what Execute returns for the
// same request: both consume one run (see serve), and a cache hit or a
// follower of a settled run replays the response as events, summary
// marked cached.
//
// Validation and resolution failures are returned before the sink sees
// any event, so transports can still answer with a plain error; once
// events have flowed, a failure is returned after them and the transport
// appends it in-band. A sink that fails is the client going away: the
// call returns CodeCanceled, whichever stage was feeding it.
//
// The engine never runs at the sink's pace (see lead): this consumer
// drains the run's topic at its own, and one that falls a full buffer
// behind is handled by the overflow policy (Config.StreamOverflow,
// overridable per request) — blocked-then-dropped or dropped
// immediately, the drop surfacing as CodeOverloaded on that subscriber
// only.
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
	_, err := x.serve(ctx, req, o, wrapped)
	o.finish(req, err)
	if err == nil && req.Trace {
		// The terminal trace event rides this subscriber's own sink after
		// its summary — it is never published into the shared topic, so
		// untraced consumers of the same run see an unchanged stream.
		return x.deliver(sink, api.ResultEvent{Type: api.EventTrace, Trace: o.trace()})
	}
	return err
}

// serve is the one path every query takes: prepare, cache lookup,
// flight.join, and then every caller — the leader included — is a
// consumer of a flight call. Whoever leads starts the call's engine
// (lead); a batch caller (sink == nil) waits for the settled response, a
// stream caller drains a subscription to the call's topic, or replays
// the response when the call has already settled or the cache had it. A
// request that must not share — NoCache, or a server with no cache —
// leads a private call: no coalescing, nothing stored. o records the
// phase spans and (for traced requests) carries the trace recorder.
func (x *Executor) serve(ctx context.Context, req *QueryRequest, o *queryObs, sink EventSink) (*QueryResponse, error) {
	norm, query, opts, entries, aerr := x.prepare(req)
	if aerr != nil {
		// Client mistakes are tracked apart from Failed so the latter
		// stays a server-health signal.
		x.badRequests.Add(1)
		return nil, aerr
	}
	o.algo = norm.Algorithm
	o.phase(api.PhaseValidate)
	if o.rec != nil {
		opts.Tracer = o.rec
	}
	req = norm
	partial := req.Partial != api.PartialForbid
	key := "" // the private call: nothing stored, nobody joins
	if req.NoCache || !x.cache.enabled() {
		o.cache = api.CacheBypass
	} else {
		key = cacheKey(req, entries)
		if cached, ok := x.cache.get(key); ok {
			x.cacheHits.Add(1)
			o.cache = api.CacheHit
			o.phase(api.PhaseCache)
			return x.replayResponse(cached, o, sink)
		}
		x.cacheMisses.Add(1)
		o.cache = api.CacheMiss
		o.phase(api.PhaseCache)
	}
	// The deadline is applied before the flight so a follower's wait is
	// bounded by its own requested timeout, not the leader's.
	ctx, cancel := x.applyDeadline(ctx, req, 0)
	defer cancel()
	// Single-flight: identical concurrent misses run the engine once. A
	// leader failure is not shared — its error may be specific to its own
	// deadline — so each waiting follower retries, one of them becoming
	// the next leader.
	for {
		c, leader := x.flight.join(key)
		if leader {
			if key != "" {
				o.phase(api.PhaseFlight)
			}
			sub, aerr := x.lead(ctx, req, query, opts, entries, c, sink != nil)
			if aerr != nil {
				return nil, aerr
			}
			if sink != nil {
				// The leader's drain overlaps its own engine run, so the
				// span from here to completion is delivery time.
				_, err := x.drainSub(ctx, sub, sink, false)
				o.phase(api.PhaseDrain)
				return nil, err
			}
			aerr = x.await(ctx, c)
			o.phase(api.PhaseEngine)
			if aerr != nil {
				return nil, aerr
			}
			return c.resp, c.err
		}
		// A live topic means the leader's engine is mid-run: a stream
		// follower attaches and consumes independently instead of waiting
		// for it to finish. A forbid request skips mid-run attachment: the
		// run may yet degrade, and this subscriber must not deliver a
		// partial prefix — it waits for the settled outcome below instead.
		if topic := c.topic.Load(); topic != nil && sink != nil && partial {
			x.coalesced.Add(1)
			x.midRunAttaches.Add(1)
			o.cache = api.CacheCoalesced
			o.phase(api.PhaseFlight)
			retry, err := x.drainSub(ctx, topic.Subscribe(x.subPolicy(req)), sink, true)
			if retry {
				// The run failed before this follower saw anything: like a
				// follower of a settled failure, retry — a leader error may
				// be specific to its own deadline, and this caller may
				// become the next leader. Undo the share counters; nothing
				// was shared.
				x.coalesced.Add(-1)
				x.midRunAttaches.Add(-1)
				o.cache = api.CacheMiss
				continue
			}
			o.phase(api.PhaseDrain)
			return nil, err
		}
		if aerr := x.await(ctx, c); aerr != nil {
			return nil, aerr
		}
		if c.err != nil {
			continue
		}
		// Partial is a per-request policy, not part of the flight key: a
		// forbid follower that coalesced onto an allow leader whose run
		// degraded gets the failure it asked for, not the leader's partial
		// answer.
		if c.resp.Degraded && !partial {
			return nil, apiErrorf(CodeUnavailable,
				"query degraded: %d shard(s) had no reachable replica and the request forbids partial results",
				len(c.resp.ShardsMissing))
		}
		x.coalesced.Add(1)
		o.cache = api.CacheCoalesced
		o.phase(api.PhaseFlight)
		return x.replayResponse(c.resp, o, sink)
	}
}

// await blocks until the call settles, or until a consumer of a shared
// run walks away with its own ctx. A private run is coupled to its one
// caller's ctx and counts the cancellation itself, so that caller waits
// on done alone.
func (x *Executor) await(ctx context.Context, c *flightCall) *APIError {
	abandon := ctx.Done()
	if c.key == "" {
		abandon = nil
	}
	select {
	case <-c.done:
		return nil
	case <-abandon:
		x.canceled.Add(1)
		return asAPIError(ctx.Err())
	}
}

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

// lead starts the engine run behind a flight call — the only place an
// engine starts. Admission and session setup are synchronous, so slot
// and setup failures still surface before any event; then one goroutine
// drives the run at engine speed, independent of how fast anyone reads:
// publish into the call's topic, cache the response, hand back the slot
// and the sources the moment enumeration finishes, then settle the
// flight and close the topic. A streaming leader gets its own
// subscription, attached before the first publish so its lag window
// covers the whole run; a batch leader waits on the call like a follower.
//
// A shared run (c.key set) is detached from its leader's cancellation:
// a leader whose client goes away must not abort work that followers
// and the cache will consume. The trade-off is deliberate — a run every
// consumer has abandoned still finishes and fills the cache, holding
// its slot until then — and since detachment removes the disconnect as
// a backstop, a shared run always gets a deadline ceiling: MaxTimeout
// (always set) when neither the request nor the server configures one,
// so a blocking source cannot pin a slot forever. A private run serves
// one caller and keeps that caller's already-deadlined context.
func (x *Executor) lead(ctx context.Context, req *QueryRequest, query proxrank.Vector, opts proxrank.Options, entries []*Entry, c *flightCall, stream bool) (sub *broker.Sub[api.ResultEvent], aerr *APIError) {
	started := false
	defer func() {
		if started {
			return
		}
		if aerr == nil {
			// A panic is unwinding through setup: retire the flight so
			// followers retry instead of waiting on a key that never settles.
			aerr = apiErrorf(CodeInternal, "query leader aborted")
		}
		x.flight.leave(c, nil, aerr)
	}()
	if err := ctx.Err(); err != nil {
		x.canceled.Add(1)
		return nil, asAPIError(err)
	}
	q, missing, release, aerr := x.openSession(ctx, query, opts, entries, req.Partial != api.PartialForbid)
	if aerr != nil {
		return nil, aerr
	}

	x.engineRuns.Add(1)
	topic := broker.New[api.ResultEvent](x.cfg.StreamBuffer, x.cfg.StreamBlockTimeout)
	topic.Attach(x.bins)
	if stream {
		x.streamsBrokered.Add(1)
		sub = topic.Subscribe(x.subPolicy(req))
	}
	// Published before the engine starts: from here on stream followers
	// attach mid-run.
	c.topic.Store(topic)
	shared := c.key != ""
	engCtx, engCancel := ctx, context.CancelFunc(func() {})
	if shared {
		engCtx, engCancel = x.applyDeadline(context.WithoutCancel(ctx), req, x.cfg.MaxTimeout)
	}
	started = true // the engine goroutine settles the call from here
	go func() {
		var resp *QueryResponse
		var err error // an interface, so that success settles as a true nil
		defer func() {
			// Detached from any request handler: uncontained, an engine
			// panic here would kill the whole process, not one query.
			if r := recover(); r != nil {
				x.failed.Add(1)
				resp, err = nil, apiErrorf(CodeInternal, "query leader panicked: %v", r)
			}
			// Slot and sources go back before the flight settles: a batch
			// caller returns the instant done closes, and InFlight and the
			// pruning counters must already account for its query.
			release()
			engCancel()
			x.flight.leave(c, resp, err)
			topic.Close(err)
		}()
		resp, runErr := x.publishRun(engCtx, q, opts, entries, missing, topic)
		if runErr != nil {
			aerr := asAPIError(runErr)
			err = aerr
			if aerr.Code != CodeTimeout && aerr.Code != CodeCanceled {
				x.failed.Add(1)
			} else if shared || !stream {
				// A private stream's cancellation is its one client's own,
				// and that client's drain already counted it.
				x.canceled.Add(1)
			}
		} else if shared && !resp.Degraded {
			// Degraded responses are never cached (the shard may come back
			// any moment); followers still share this run's outcome through
			// the flight and re-check their own partial policy.
			x.cache.put(c.key, resp)
		}
	}()
	return sub, nil
}

// publishRun drives the engine to completion at engine speed, publishing
// every certified result (and the DNF best-effort tail, matching the
// batch contract) plus the trailing summary into the topic. Overflowing
// subscribers are dropped by the topic per their policy; the run itself
// never waits on a consumer beyond that consumer's cumulative block
// budget. An engine failure comes back raw — the caller decides how to
// classify and count it. Each result event points at its element of the
// response's Results, so a combination is converted to wire form once;
// the slice is allocated at its K ceiling and must never grow, which
// would strand the published pointers on the old backing array.
func (x *Executor) publishRun(ctx context.Context, q *proxrank.Query, opts proxrank.Options, entries []*Entry, missing func() []api.MissingShard, topic *broker.Topic[api.ResultEvent]) (*QueryResponse, error) {
	publish := func(ev api.ResultEvent) {
		if n := topic.Publish(ev); n > 0 {
			x.slowDrops.Add(int64(n))
		}
	}
	results := make([]ResultCombination, 0, opts.K)
	gap := x.m.newGapObserver(opts.Algorithm)
	dnf, err := pullCombinations(ctx, q, opts.K, func(c proxrank.Combination) {
		gap()
		results = append(results, wireCombination(c, entries))
		publish(api.ResultEvent{Type: api.EventResult, Rank: len(results), Result: &results[len(results)-1]})
	})
	if err != nil {
		return nil, err
	}
	stats := q.Stats()
	resp := buildResponse(results, q.Threshold(), dnf, stats, missing())
	if resp.Degraded {
		x.degraded.Add(1)
	}
	x.recordOutcome(stats)
	publish(api.ResultEvent{Type: api.EventSummary, Summary: summaryOf(resp, false)})
	return resp, nil
}

// summaryOf is the trailing summary of a response's stream, marked
// cached on a replay. The degraded fields carry over (a replay reaches
// them only via the flight: degraded responses are never cached).
func summaryOf(resp *QueryResponse, cached bool) *api.Summary {
	return &api.Summary{
		Count:            len(resp.Results),
		DNF:              resp.DNF,
		Cached:           cached,
		Cost:             resp.Cost,
		Degraded:         resp.Degraded,
		ShardsMissing:    resp.ShardsMissing,
		ResultsCertified: resp.ResultsCertified,
	}
}

// deliver hands one event to a sink. A sink that fails is the client
// going away, whichever loop was feeding it — counted and reported as a
// cancellation, never as a server fault.
func (x *Executor) deliver(sink EventSink, ev api.ResultEvent) error {
	if err := sink(ev); err != nil {
		x.canceled.Add(1)
		return apiErrorf(CodeCanceled, "stream sink: %v", err)
	}
	return nil
}

// drainSub delivers one subscription to one sink at the sink's own pace
// — the consumer half of brokered delivery. markCached rewrites the
// summary on a copy (events are shared across subscribers) the way
// replayResponse marks a replay. retry reports that the run
// itself failed before this consumer delivered anything — a follower's
// cue to retry the flight instead of inheriting the leader's failure.
func (x *Executor) drainSub(ctx context.Context, sub *broker.Sub[api.ResultEvent], sink EventSink, markCached bool) (retry bool, _ error) {
	// Detach on every exit so an abandoned subscription never constrains
	// the engine.
	defer sub.Cancel()
	for delivered := 0; ; delivered++ {
		ev, err := sub.Next(ctx)
		switch {
		case err == nil:
			if markCached && ev.Type == api.EventSummary && ev.Summary != nil {
				s := *ev.Summary
				s.Cached = true
				ev.Summary = &s
			}
			if err := x.deliver(sink, ev); err != nil {
				return false, err
			}
		case errors.Is(err, broker.ErrDone):
			return false, nil
		case errors.Is(err, broker.ErrSlowSubscriber):
			return false, apiErrorf(CodeOverloaded, "stream consumer too slow: fell more than %d events behind the engine", x.cfg.StreamBuffer)
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			x.canceled.Add(1)
			return false, asAPIError(err)
		default:
			// The topic's terminal error: the engine side already recorded
			// and classified it.
			return delivered == 0, asAPIError(err)
		}
	}
}

// replayResponse hands an already-computed response to a caller that did
// not lead its run — a cache hit, or a follower of a settled flight: a
// batch caller gets a copy marked cached, a stream caller the response
// as events, summary marked cached.
func (x *Executor) replayResponse(resp *QueryResponse, o *queryObs, sink EventSink) (*QueryResponse, error) {
	if sink == nil {
		hit := *resp // shallow copy; the shared value stays immutable
		hit.Cached = true
		return &hit, nil
	}
	defer o.phase(api.PhaseDrain)
	for i := range resp.Results {
		ev := api.ResultEvent{Type: api.EventResult, Rank: i + 1, Result: &resp.Results[i]}
		if err := x.deliver(sink, ev); err != nil {
			return nil, err
		}
	}
	return nil, x.deliver(sink, api.ResultEvent{Type: api.EventSummary, Summary: summaryOf(resp, true)})
}

// applyDeadline wraps ctx with the query's effective deadline: the
// clamped client-requested TimeoutMillis, else the configured default,
// else fallback (0 = no deadline). The returned cancel is never nil.
func (x *Executor) applyDeadline(ctx context.Context, req *QueryRequest, fallback time.Duration) (context.Context, context.CancelFunc) {
	d := fallback
	if req.TimeoutMillis > 0 {
		// Clamp in milliseconds before converting: a huge TimeoutMillis
		// would overflow the Duration multiply into a negative (instantly
		// expired) deadline.
		millis := req.TimeoutMillis
		if maxMillis := x.cfg.MaxTimeout.Milliseconds(); millis > maxMillis {
			millis = maxMillis
		}
		d = time.Duration(millis) * time.Millisecond
	} else if x.cfg.DefaultTimeout > 0 {
		d = x.cfg.DefaultTimeout
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
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

// openSession is the setup half of an engine run: claim a worker slot,
// open the per-relation sources, and build the bounded query session. On
// error the slot is already released and the failure counters recorded;
// on success the caller owns release, which settles the sources'
// accounting before handing the slot back.
//
// The session buffer is bounded to K — a query delivers at most K
// results (certified prefix plus DNF drain) — so peak memory is O(K).
// Validation guarantees an explicit client MaxBuffered is >= K.
func (x *Executor) openSession(ctx context.Context, query proxrank.Vector, opts proxrank.Options, entries []*Entry, partial bool) (*proxrank.Query, func() []api.MissingShard, func(), *APIError) {
	release, aerr := x.acquireSlot(ctx)
	if aerr != nil {
		return nil, nil, nil, aerr
	}
	opened := false
	defer func() {
		if !opened {
			release()
		}
	}()
	sources, missing, cleanup, aerr := x.buildSources(ctx, opts, query, entries, partial)
	if aerr != nil {
		x.failed.Add(1)
		return nil, nil, nil, aerr
	}
	q, err := proxrank.NewQuerySources(query, sources, opts.BoundedToK())
	if err != nil {
		cleanup()
		x.failed.Add(1)
		return nil, nil, nil, asAPIError(err)
	}
	opened = true
	done := func() {
		cleanup()
		release()
	}
	return q, missing, done, nil
}

// pullCombinations drives a query session to at most k results, handing
// each to emit the moment it is certified. A capped run delivers the
// uncertified best-effort tail in report order too — matching the batch
// DNF contract — and returns dnf true; the error is the engine's own
// failure. Every run goes through this one loop, which is what keeps
// batch responses and event sequences identical.
func pullCombinations(ctx context.Context, q *proxrank.Query, k int, emit func(proxrank.Combination)) (bool, error) {
	emitted := 0
	for emitted < k {
		batch, err := q.NextContext(ctx, 1)
		for _, c := range batch {
			emitted++
			emit(c)
		}
		switch {
		case err == nil:
		case errors.Is(err, proxrank.ErrStreamDone):
			return false, nil
		case errors.Is(err, proxrank.ErrDNF):
			for _, c := range q.DrainBest(k - emitted) {
				emit(c)
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

// buildResponse assembles the wire response around already-converted
// results. A run that abandoned shards is marked degraded, with the
// missing shard list and the certified count over the data that was
// actually reachable (zero when a DNF cap also cut the surviving-shard
// certification short).
func buildResponse(results []ResultCombination, threshold float64, dnf bool, stats proxrank.Stats, missing []api.MissingShard) *QueryResponse {
	out := &QueryResponse{
		Results: results,
		DNF:     dnf,
		Cost: QueryCost{
			SumDepths:           stats.SumDepths,
			Depths:              stats.Depths,
			Combinations:        stats.CombinationsFormed,
			BoundUpdates:        stats.BoundUpdates,
			QPSolves:            stats.QPSolves,
			ElapsedMicros:       stats.TotalTime.Microseconds(),
			SpilledCombinations: stats.SpilledCombinations,
			SpilledBytes:        stats.SpilledBytes,
		},
	}
	if !math.IsInf(threshold, 0) && !math.IsNaN(threshold) {
		out.Cost.Threshold = &threshold
	}
	if len(missing) > 0 {
		out.Degraded, out.ShardsMissing = true, missing
		if !dnf {
			out.ResultsCertified = len(results)
		}
	}
	return out
}
