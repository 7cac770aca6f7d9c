package service

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/broker"
	"repro/internal/obs"
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
	// api.CodeOverloaded (HTTP 503 + Retry-After) instead of queueing into a
	// deadline they cannot meet. A value ≤ 0 takes 4×Workers.
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
	// SlowQueryThreshold, when positive, logs every request whose total
	// duration reaches it as one SlowQuery JSON line on SlowQueryLog.
	// The log line carries the same per-phase trace structure a traced
	// request returns.
	SlowQueryThreshold time.Duration
	// SlowQueryLog is where slow-query lines go. Nil disables logging
	// even when the threshold is set.
	SlowQueryLog io.Writer
	// SpillDir and SpillMemBytes are ignored: the engine writes no
	// files. They stay only while the benchmark harness still sets them,
	// and leave with ROADMAP item 18(a), "`bench/` follows the code".
	SpillDir      string
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

// DefaultStreamBuffer and DefaultStreamBlockTimeout configure nothing:
// vestiges of the removed stream lag window, kept while the benchmark
// harness still passes them to broker.New, leaving with the ROADMAP item
// "`bench/` follows the code".
const (
	DefaultStreamBuffer       = 64
	DefaultStreamBlockTimeout = time.Second
)

// EventSink receives streaming result events in order. A sink returning
// an error ends that consumer's stream; the executor treats it as the
// caller going away (api.CodeCanceled).
type EventSink func(api.ResultEvent) error

// StatsSnapshot is the executor's cumulative counters read in process;
// GET /metrics serves the same values as proxrank_* families.
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
	// StreamSubscribers is the number of stream subscriptions attached
	// right now, across every live topic.
	StreamSubscribers int64 `json:"streamSubscribers"`
	TotalSumDepths    int64 `json:"totalSumDepths"`
	TotalCombinations int64 `json:"totalCombinations"`
	TotalBoundUpdates int64 `json:"totalBoundUpdates"`
	TotalEngineMicros int64 `json:"totalEngineMicros"`
	// RemoteStreamsOpened counts remote shards a query read — one stream
	// per peer carries a set of shards, and its peer reports how many of
	// them its merge reached; ShardsPruned counts the rest, whose bound
	// proved the shard could not contribute, so no merge read it.
	RemoteStreamsOpened int64 `json:"remoteStreamsOpened"`
	ShardsPruned        int64 `json:"shardsPruned"`
	// RemoteRowsConsumed counts rows the merges actually took from remote
	// shard streams — the useful share of the rows the peers sent (the
	// coordinator's /metrics reports those as proxrank_rpc_rows_total).
	RemoteRowsConsumed int64 `json:"remoteRowsConsumed"`
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
	// run's topic attaches, so the subscriber gauge spans runs.
	m    *metrics
	bins *broker.Instruments
	// slowMu serializes slow-query log lines (the sink is shared).
	slowMu sync.Mutex

	// wrapSource, when set (tests only), wraps each relation's merged
	// source before the engine reads it — the hook used to prove
	// incremental delivery against a deliberately slow source.
	wrapSource func(proxrank.Source) proxrank.Source
	formsBuilt atomic.Int64 // wire forms encoded (answer.form); tests pin it

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
	totalSumDepths    atomic.Int64
	totalCombinations atomic.Int64
	totalBoundUpdates atomic.Int64
	totalEngineMicros atomic.Int64
	remoteOpened      atomic.Int64
	shardsPruned      atomic.Int64
	remoteConsumed    atomic.Int64
}

// NewExecutor builds an executor over cat.
func NewExecutor(cat *Catalog, cfg Config) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.AdmissionQueue <= 0 {
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
	x := &Executor{
		cat:    cat,
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.Workers),
		cache:  newResultCache(cfg.CacheSize),
		flight: &flightGroup{calls: make(map[string]*flightCall)},
		bins:   &broker.Instruments{},
	}
	x.m = newMetrics(obs.NewRegistry(), x)
	x.m.registerCatalog(cat)
	return x
}

// Registry returns the executor's own metrics registry, which every
// metric family it registers reports into (served at GET /metrics).
func (x *Executor) Registry() *obs.Registry { return x.m.reg }

// AttachFleet wires a coordinator's peer fleet into this executor's
// metric registry: per-peer pull latency histograms and func-backed
// pull/retry/reconnect counters. Call once at coordinator startup.
func (x *Executor) AttachFleet(fleet *shardrpc.Fleet) { x.m.registerFleet(fleet) }

// Stats returns a consistent-enough snapshot of the counters.
func (x *Executor) Stats() StatsSnapshot {
	return StatsSnapshot{
		Queries:             x.queries.Load(),
		Streamed:            x.streamed.Load(),
		Completed:           x.completed.Load(),
		CacheHits:           x.cacheHits.Load(),
		CacheMisses:         x.cacheMisses.Load(),
		Coalesced:           x.coalesced.Load(),
		CacheEntries:        x.cache.len(),
		Canceled:            x.canceled.Load(),
		BadRequests:         x.badRequests.Load(),
		Failed:              x.failed.Load(),
		Rejected:            x.rejected.Load(),
		InFlight:            x.inFlight.Load(),
		Queued:              x.queued.Load(),
		Degraded:            x.degraded.Load(),
		EngineRuns:          x.engineRuns.Load(),
		StreamsBrokered:     x.streamsBrokered.Load(),
		MidRunAttaches:      x.midRunAttaches.Load(),
		StreamSubscribers:   x.bins.Subscribers.Load(),
		TotalSumDepths:      x.totalSumDepths.Load(),
		TotalCombinations:   x.totalCombinations.Load(),
		TotalBoundUpdates:   x.totalBoundUpdates.Load(),
		TotalEngineMicros:   x.totalEngineMicros.Load(),
		RemoteStreamsOpened: x.remoteOpened.Load(),
		ShardsPruned:        x.shardsPruned.Load(),
		RemoteRowsConsumed:  x.remoteConsumed.Load(),
	}
}

// prepare runs the shared front half of every execution path: central
// validation and defaulting via api.Request.Normalize (with the server's
// K limit), translation into engine options, catalog resolution, and the
// dimensionality pre-check. The caller's request is never mutated —
// normalization happens on a private copy (callers may legally share one
// request across concurrent queries), which is returned for canonical
// cache keying.
func (x *Executor) prepare(req *api.Request) (*api.Request, proxrank.Vector, proxrank.Options, []*Entry, *api.Error) {
	// Shallow copy is enough: Normalize rewrites fields of the copy and
	// only ever replaces (never writes through) the Weights pointer.
	norm := *req
	query, opts, err := proxrank.OptionsFromRequest(&norm, api.Limits{MaxK: x.cfg.MaxK})
	if err != nil {
		return nil, nil, proxrank.Options{}, nil, asAPIError(err)
	}
	entries, err := x.cat.Resolve(norm.Relations)
	if err != nil {
		return nil, nil, proxrank.Options{}, nil, asAPIError(err)
	}
	for _, e := range entries {
		rel := e.Relation()
		if rel.Dim() != len(norm.Query) {
			return nil, nil, proxrank.Options{}, nil, api.Errorf(api.CodeBadRequest, "relation %q has dim %d, query has dim %d",
				rel.Name, rel.Dim(), len(norm.Query))
		}
	}
	return &norm, query, opts, entries, nil
}

// Execute answers one query as a batch: it takes the one path every
// query takes (serve) and waits for the run's settled response.
//
// The returned response may share its Results and Cost.Depths backing
// arrays with the executor's cache — treat it as read-only. Callers that
// need to mutate a response must copy those slices first.
func (x *Executor) Execute(ctx context.Context, req *api.Request) (*api.Response, error) {
	return x.execute(ctx, req, nil)
}

// execute is Execute for a transport: when the response is a replay,
// wire has been handed its encoded body (see replayResponse) — without
// the trace, which is this request's own and rides the response.
func (x *Executor) execute(ctx context.Context, req *api.Request, wire func([]byte) error) (*api.Response, error) {
	x.queries.Add(1)
	o := x.beginObs(labelModeBatch, req)
	resp, err := x.serve(ctx, req, o, nil, wire, nil)
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
// call returns api.CodeCanceled, whichever stage was feeding it.
//
// The engine never runs at the sink's pace (see lead): this consumer
// drains the run's topic at its own, and however far it falls behind it
// delays nobody else and still receives every event.
func (x *Executor) ExecuteStream(ctx context.Context, req *api.Request, sink EventSink) error {
	return x.executeStream(ctx, req, sink, nil, nil)
}

// executeStream is ExecuteStream for a transport: a replay reaches wire
// as its result and summary lines in one piece, not sink as events. Live
// events, and a traced request's trace event, still go to sink, and idle,
// when set, is called each time the drain of live events is about to
// wait for the engine: the moment a transport that buffers its writes
// flushes them.
func (x *Executor) executeStream(ctx context.Context, req *api.Request, sink EventSink, wire func([]byte) error, idle func()) error {
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
	_, err := x.serve(ctx, req, o, wrapped, wire, idle)
	o.finish(req, err)
	if err == nil && req.Trace {
		// The terminal trace event rides this subscriber's own sink after
		// its summary — it is never published into the shared topic, so
		// untraced consumers of the same run see an unchanged stream.
		return x.delivered(sink(api.ResultEvent{Type: api.EventTrace, Trace: o.trace()}))
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
// leads a private call: no coalescing, nothing stored. o records phase
// spans and carries a traced request's recorder; only a replay uses wire,
// and only a drain idle.
func (x *Executor) serve(ctx context.Context, req *api.Request, o *queryObs, sink EventSink, wire func([]byte) error, idle func()) (*api.Response, error) {
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
		canon := req.Canonical()
		key = flightKey(canon, entries)
		if cached, ok := x.cache.get(canon, newestGen(entries)); ok {
			x.cacheHits.Add(1)
			o.cache = api.CacheHit
			o.phase(api.PhaseCache)
			return x.replayResponse(cached, o, sink, wire)
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
				_, err := x.drainSub(ctx, sub, sink, idle, false)
				o.phase(api.PhaseDrain)
				return nil, err
			}
			aerr = x.await(ctx, c)
			o.phase(api.PhaseEngine)
			if aerr != nil {
				return nil, aerr
			}
			return c.ans.resp, c.err
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
			retry, err := x.drainSub(ctx, topic.Subscribe(broker.PolicyBlock), sink, idle, true)
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
		if c.ans.resp.Degraded && !partial {
			return nil, api.Errorf(api.CodeUnavailable,
				"query degraded: %d shard(s) had no reachable replica and the request forbids partial results",
				len(c.ans.resp.ShardsMissing))
		}
		x.coalesced.Add(1)
		o.cache = api.CacheCoalesced
		o.phase(api.PhaseFlight)
		return x.replayResponse(c.ans, o, sink, wire)
	}
}

// await blocks until the call settles, or until a consumer of a shared
// run walks away with its own ctx. A private run is coupled to its one
// caller's ctx and counts the cancellation itself, so that caller waits
// on done alone.
func (x *Executor) await(ctx context.Context, c *flightCall) *api.Error {
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
