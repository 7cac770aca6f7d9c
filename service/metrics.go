package service

import (
	"strings"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/internal/obs"
	"repro/internal/relfile"
	"repro/internal/shardrpc"
)

// Metric label values for the query-latency and TTFE histograms.
const (
	labelModeBatch  = "batch"
	labelModeStream = "stream"
	// labelCacheNone marks a request that ended before the cache lookup
	// (validation failure, unknown relation); the cache states a request
	// can actually reach are the api.Cache* vocabulary.
	labelCacheNone = "none"
	// labelOutcomeOK marks a request answered without error.
	labelOutcomeOK = "ok"
)

// metrics is the executor's instrument set over one obs.Registry.
//
// Naming scheme (documented in ARCHITECTURE.md): every family is
// prefixed proxrank_, counters end in _total, durations are _seconds
// histograms, and each family belongs to one layer —
// proxrank_query/proxrank_stream (executor), proxrank_engine (core, fed
// through Stats and the CollectTimings/Tracer plumbing),
// proxrank_cache/proxrank_workers (serving resources), and
// proxrank_catalog (catalog). Counters are func-backed readers of the
// executor atomics Executor.Stats reads, so the in-process snapshot and
// /metrics cannot drift apart.
type metrics struct {
	reg *obs.Registry

	// duration: per-request wall time by mode/algorithm/cache/outcome.
	// ttfe: time to first delivered result (== duration for batch).
	duration *obs.HistogramVec
	ttfe     *obs.HistogramVec
	// interResult: delay between consecutive certified results of one
	// streamed run — the ranked-enumeration "delay" metric.
	interResult *obs.HistogramVec
	// pull: per-pull step duration, fed only by traced runs (the
	// engine's Tracer plumbing); cheap runs do not pay the timer.
	pull *obs.Histogram
	// sumDepths/pruneRatio: per-run engine cost distributions.
	sumDepths  *obs.Histogram
	pruneRatio *obs.Histogram
	// indexBuild: catalog registration index-build wall time.
	indexBuild *obs.Histogram
}

// ratioBuckets covers [0,1] quantities like the pruning ratio. Bounded
// runs prune all but a few hundred of some 10⁵ formed combinations, so
// nearly every observation lies above 0.99; 0.999 is where they separate.
var ratioBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// newMetrics registers every executor-owned family on reg and wires the
// func-backed families to the executor's and broker's live counters.
func newMetrics(reg *obs.Registry, x *Executor) *metrics {
	m := &metrics{reg: reg}

	durBuckets := obs.DurationBuckets()
	m.duration = reg.HistogramVec("proxrank_query_duration_seconds",
		"Per-request wall time.", durBuckets, "mode", "algorithm", "cache", "outcome")
	m.ttfe = reg.HistogramVec("proxrank_query_ttfe_seconds",
		"Time to first delivered result (equals total duration for batch requests).",
		durBuckets, "mode", "algorithm", "cache")
	m.interResult = reg.HistogramVec("proxrank_stream_interresult_seconds",
		"Delay between consecutive certified results within one run.",
		obs.ExpBuckets(10e-6, 4, 12), "algorithm")
	m.pull = reg.Histogram("proxrank_engine_pull_duration_seconds",
		"Per-pull engine step time; observed only for traced runs.",
		obs.ExpBuckets(1e-6, 4, 12))
	m.sumDepths = reg.Histogram("proxrank_engine_sum_depths",
		"Total access depth (the paper's sumDepths) per engine run.",
		obs.ExpBuckets(4, 2, 16))
	m.pruneRatio = reg.Histogram("proxrank_engine_prune_ratio",
		"Fraction of formed combinations cut by score-floor pruning, per engine run.",
		ratioBuckets)
	m.indexBuild = reg.Histogram("proxrank_catalog_index_build_seconds",
		"Partitioning plus index-build wall time per relation registration.",
		obs.ExpBuckets(1e-4, 4, 12))

	// Func-backed readers of the atomics Executor.Stats snapshots.
	c := func(name, help string, a *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(a.Load()) })
	}
	c("proxrank_queries_total", "Requests accepted by the executor (batch + stream).", &x.queries)
	c("proxrank_queries_streamed_total", "Requests that used the streaming path.", &x.streamed)
	c("proxrank_queries_completed_total", "Engine runs that finished and were folded into the totals.", &x.completed)
	c("proxrank_cache_hits_total", "Result-cache hits.", &x.cacheHits)
	c("proxrank_cache_misses_total", "Result-cache misses.", &x.cacheMisses)
	c("proxrank_coalesced_total", "Requests answered by another caller's in-flight run.", &x.coalesced)
	c("proxrank_canceled_total", "Requests abandoned by their caller or deadline.", &x.canceled)
	c("proxrank_bad_requests_total", "Requests rejected by validation or resolution.", &x.badRequests)
	c("proxrank_failed_total", "Requests that failed server-side.", &x.failed)
	c("proxrank_rejected_total", "Requests shed because no worker slot freed before the deadline or the admission queue was full.", &x.rejected)
	c("proxrank_degraded_queries_total", "Queries that completed without some shard whose every replica was unreachable.", &x.degraded)
	c("proxrank_engine_runs_total", "Engine executions started.", &x.engineRuns)
	c("proxrank_streams_brokered_total", "Engine runs started by a streaming request.", &x.streamsBrokered)
	c("proxrank_stream_midrun_attaches_total", "Coalesced stream followers that attached to a live topic mid-run.", &x.midRunAttaches)
	c("proxrank_shards_pruned_total", "Remote shards whose bound proved they could not contribute, so no merge read them: the coordinator's merge never opened their peer's stream, or the peer's merge of its shards never reached them.", &x.shardsPruned)
	c("proxrank_remote_streams_opened_total", "Remote shards a query read: shards of an opened peer stream that the peer's merge reached.", &x.remoteOpened)
	c("proxrank_remote_rows_consumed_total", "Rows the merges took from remote shard streams (compare proxrank_rpc_rows_total, the rows fetched).", &x.remoteConsumed)
	c("proxrank_engine_sum_depths_total", "Cumulative access depth across completed runs.", &x.totalSumDepths)
	c("proxrank_engine_combinations_total", "Cumulative combinations formed across completed runs.", &x.totalCombinations)
	c("proxrank_engine_bound_updates_total", "Cumulative stopping-threshold recomputations across completed runs.", &x.totalBoundUpdates)
	reg.CounterFunc("proxrank_engine_seconds_total",
		"Cumulative engine wall time across completed runs.",
		func() float64 { return float64(x.totalEngineMicros.Load()) / 1e6 })

	reg.GaugeFunc("proxrank_in_flight", "Engine executions holding a worker slot right now.",
		func() float64 { return float64(x.inFlight.Load()) })
	reg.GaugeFunc("proxrank_queued", "Queries waiting for a worker slot right now (shed past Config.AdmissionQueue).",
		func() float64 { return float64(x.queued.Load()) })
	reg.GaugeFunc("proxrank_workers", "Configured worker-pool size.",
		func() float64 { return float64(x.cfg.Workers) })
	reg.GaugeFunc("proxrank_worker_saturation", "In-flight executions over pool size (1 = saturated).",
		func() float64 { return float64(x.inFlight.Load()) / float64(x.cfg.Workers) })
	reg.GaugeFunc("proxrank_cache_entries", "Responses currently held by the result cache.",
		func() float64 { return float64(x.cache.len()) })
	reg.GaugeFunc("proxrank_process_resident_bytes",
		"Resident set size of this process (0 where /proc is unavailable). With mmap-backed relations this stays flat however large the catalog's files are.",
		func() float64 { return float64(residentBytes()) })

	// Broker delivery: the same gauge the stats snapshot reads.
	reg.GaugeFunc("proxrank_stream_subscribers", "Currently attached stream subscribers.",
		func() float64 { return float64(x.bins.Subscribers.Load()) })

	return m
}

// registerCatalog adds the catalog-layer gauges and wires the
// index-build observer. Separate from newMetrics only because it
// touches the catalog, not the executor.
func (m *metrics) registerCatalog(cat *Catalog) {
	m.reg.GaugeFunc("proxrank_catalog_relations", "Registered relations.",
		func() float64 { return float64(cat.Len()) })
	m.reg.GaugeFunc("proxrank_catalog_shards", "Shards summed over all registered relations.",
		func() float64 { return float64(cat.TotalShards()) })
	m.reg.CounterFunc("relfile_open_total", "Relfile mappings opened by the catalog (LoadRelFile admissions).",
		func() float64 { return float64(cat.RelFileOpens()) })
	m.reg.GaugeFunc("relfile_mapped_bytes", "Bytes of relfile mappings currently mapped in this process: a mapping is unmapped once no relation or stream over it is reachable.",
		func() float64 { return float64(relfile.MappedBytes()) })
	cat.SetBuildObserver(func(_ int, d time.Duration) {
		m.indexBuild.ObserveDuration(d.Seconds())
	})
}

// registerFleet adds the coordinator's per-peer RPC families: a
// round-trip latency histogram labeled by peer address and func-backed
// mirrors of each peer's pull/row/retry/reconnect counters. Called once, at
// coordinator startup, before the fleet serves queries.
func (m *metrics) registerFleet(fleet *shardrpc.Fleet) {
	pull := m.reg.HistogramVec("proxrank_rpc_pull_duration_seconds",
		"Shardrpc request/response round-trip time, by peer.",
		obs.DurationBuckets(), "peer")
	pulls := m.reg.CounterFuncVec("proxrank_rpc_pulls_total",
		"Shardrpc exchanges attempted, by peer.", "peer")
	rows := m.reg.CounterFuncVec("proxrank_rpc_rows_total",
		"Tuple rows received in shardrpc pull/next responses, by peer.", "peer")
	retries := m.reg.CounterFuncVec("proxrank_rpc_retries_total",
		"Shardrpc exchanges re-issued after a transport failure, by peer.", "peer")
	reconnects := m.reg.CounterFuncVec("proxrank_rpc_reconnects_total",
		"Shardrpc dials that were not a peer's first contact, by peer.", "peer")
	hedges := m.reg.CounterFuncVec("proxrank_hedges_total",
		"Hedged pulls issued, by peer (the replica the hedge was sent to).", "peer")
	hedgeWins := m.reg.CounterFuncVec("proxrank_hedge_wins_total",
		"Hedged pulls that answered before the primary, by peer.", "peer")
	breakerOpens := m.reg.CounterFuncVec("proxrank_breaker_opens_total",
		"Circuit-breaker transitions into the open state, by peer.", "peer")
	breakerState := m.reg.GaugeFuncVec("proxrank_breaker_state",
		"Circuit-breaker position by peer: 0 closed, 1 open, 2 half-open.", "peer")
	peers := fleet.Peers()
	m.reg.GaugeFunc("proxrank_fleet_peers", "Configured shard-server peers.",
		func() float64 { return float64(len(peers)) })
	for _, p := range peers {
		p := p
		h := pull.With(p.Addr)
		p.ObservePull = func(d time.Duration, _ error) { h.ObserveDuration(d.Seconds()) }
		pulls.Bind(func() float64 { return float64(p.Pulls.Load()) }, p.Addr)
		rows.Bind(func() float64 { return float64(p.Rows.Load()) }, p.Addr)
		retries.Bind(func() float64 { return float64(p.Retries.Load()) }, p.Addr)
		reconnects.Bind(func() float64 { return float64(p.Reconnects.Load()) }, p.Addr)
		hedges.Bind(func() float64 { return float64(p.Hedges.Load()) }, p.Addr)
		hedgeWins.Bind(func() float64 { return float64(p.HedgeWins.Load()) }, p.Addr)
		breakerOpens.Bind(func() float64 { return float64(p.Breaker().Opens()) }, p.Addr)
		breakerState.Bind(func() float64 { return float64(p.Breaker().State()) }, p.Addr)
	}
}

// observePull is the traced-run engine hook.
func (m *metrics) observePull(d time.Duration) { m.pull.ObserveDuration(d.Seconds()) }

// newGapObserver returns a closure one streamed run calls per emitted
// result; from the second call on it observes the delay since the
// previous one. The label matches the request vocabulary ("tbpa", ...).
func (m *metrics) newGapObserver(algo proxrank.Algorithm) func() {
	h := m.interResult.With(strings.ToLower(algo.ShortName()))
	var last time.Time
	return func() {
		now := time.Now()
		if !last.IsZero() {
			h.ObserveDuration(now.Sub(last).Seconds())
		}
		last = now
	}
}
