package service

import (
	"encoding/json"
	"math"
	"sync"
	"time"

	"repro/api"
)

// maxTraceEvents bounds each per-kind event list a trace recorder
// retains (pulls, bounds): a pathological run could
// otherwise make one traced query allocate without limit. Overflow is
// counted, not silently dropped — Trace.DroppedEvents reports it.
const maxTraceEvents = 4096

// traceRecorder implements proxrank.Tracer for one traced engine run,
// accumulating the pull-level detail of the api trace. The engine
// invokes it from the run's own goroutine while the request goroutine
// snapshots it afterwards — hence the mutex. Only traced runs pay for
// it.
type traceRecorder struct {
	mu      sync.Mutex
	pulls   []api.TracePull
	bounds  []api.TraceBound
	dropped int64
	// observePull, when set, feeds the traced-run pull-duration
	// histogram alongside the trace itself.
	observePull func(time.Duration)
}

func (r *traceRecorder) TracePull(relation, depth int, d time.Duration) {
	r.mu.Lock()
	if len(r.pulls) < maxTraceEvents {
		r.pulls = append(r.pulls, api.TracePull{
			Relation:      relation,
			Depth:         depth,
			ElapsedMicros: d.Microseconds(),
		})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	if r.observePull != nil {
		r.observePull(d)
	}
}

func (r *traceRecorder) TraceBound(sumDepths int, threshold float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bounds) >= maxTraceEvents {
		r.dropped++
		return
	}
	b := api.TraceBound{SumDepths: sumDepths}
	if !isInfOrNaN(threshold) {
		t := threshold
		b.Threshold = &t
	}
	r.bounds = append(r.bounds, b)
}

// TraceBuffer records nothing: every session the executor runs is
// bounded to K (proxrank.Options.BoundedToK), and such a session's buffer
// neither spills nor revives, so the engine never calls it.
func (r *traceRecorder) TraceBuffer(action string, count int) {}

// snapshot copies the recorded detail into t. Safe to call while the
// engine may still be running (slow-query logging on a failure path);
// the copy is consistent under the mutex.
func (r *traceRecorder) snapshot(t *api.Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t.Pulls = append([]api.TracePull(nil), r.pulls...)
	t.Bounds = append([]api.TraceBound(nil), r.bounds...)
	t.DroppedEvents = r.dropped
}

// queryObs is the per-request observation state shared by metrics,
// tracing, and the slow-query log: every request gets one (the
// always-on part is two timestamps and a few strings), and the trace
// recorder only exists when the request asked for a trace.
type queryObs struct {
	x     *Executor
	mode  string // labelModeBatch | labelModeStream
	start time.Time
	mark  time.Time // start of the current phase
	algo  string
	cache string // api.Cache* vocabulary, or labelCacheNone pre-lookup
	ttfe  time.Duration
	rec   *traceRecorder
	// degraded/missing mirror the response's degradation report into the
	// trace (and the slow-query log): a degraded run is exactly the kind
	// of anomaly those surfaces exist to explain.
	degraded bool
	missing  []api.MissingShard
	// phases is recorded when the request is traced or a slow-query
	// threshold is set — the two consumers of per-phase timing.
	phases     []api.TracePhase
	wantPhases bool
}

// beginObs opens the observation for one request.
func (x *Executor) beginObs(mode string, req *api.Request) *queryObs {
	now := time.Now()
	o := &queryObs{
		x:          x,
		mode:       mode,
		start:      now,
		mark:       now,
		algo:       "unknown",
		cache:      labelCacheNone,
		wantPhases: req.Trace || x.cfg.SlowQueryThreshold > 0,
	}
	if req.Trace {
		o.rec = &traceRecorder{observePull: x.m.observePull}
	}
	return o
}

// phase closes the span open since the last mark under the given name.
// No-op unless phases are wanted, so the untraced path pays one branch.
func (o *queryObs) phase(name string) {
	if !o.wantPhases {
		return
	}
	now := time.Now()
	o.phases = append(o.phases, api.TracePhase{Name: name, ElapsedMicros: now.Sub(o.mark).Microseconds()})
	o.mark = now
}

// firstEvent records the time to first delivered result once.
func (o *queryObs) firstEvent() {
	if o.ttfe == 0 {
		o.ttfe = time.Since(o.start)
	}
}

// outcomeLabel folds an error into the bounded outcome vocabulary: "ok"
// or the api.Error code (itself a closed enum).
func outcomeLabel(err error) string {
	if err == nil {
		return labelOutcomeOK
	}
	return string(asAPIError(err).Code)
}

// trace assembles the api.Trace for this request. Phase spans cover the
// service layer; pull-level detail is present only when this request's
// own run was traced (cache hits and coalesced followers report their
// phases and cache state, which is the honest account of what they did).
func (o *queryObs) trace() *api.Trace {
	t := &api.Trace{CacheState: o.cache, Phases: o.phases, Degraded: o.degraded, ShardsMissing: o.missing}
	if o.rec != nil {
		o.rec.snapshot(t)
	}
	return t
}

// noteDegraded copies a response's degradation report into the
// observation, for the trace and the slow-query log.
func (o *queryObs) noteDegraded(degraded bool, missing []api.MissingShard) {
	if degraded {
		o.degraded = true
		o.missing = missing
	}
}

// finish closes the request: observes the latency and TTFE histograms
// and, past the threshold, emits the slow-query log line. Call exactly
// once, after the last phase is recorded.
func (o *queryObs) finish(req *api.Request, err error) {
	dur := time.Since(o.start)
	if o.ttfe == 0 {
		// Batch responses deliver everything at once; a stream that
		// errored before its first event has no TTFE worth the name.
		// Either way first-event time equals total time.
		o.ttfe = dur
	}
	outcome := outcomeLabel(err)
	o.x.m.duration.With(o.mode, o.algo, o.cache, outcome).ObserveDuration(dur.Seconds())
	o.x.m.ttfe.With(o.mode, o.algo, o.cache).ObserveDuration(o.ttfe.Seconds())
	if th := o.x.cfg.SlowQueryThreshold; th > 0 && dur >= th && o.x.cfg.SlowQueryLog != nil {
		o.x.logSlowQuery(req, o, dur, outcome)
	}
}

// SlowQuery is one slow-query log record: emitted as a single JSON line
// on Config.SlowQueryLog whenever a request's total duration reaches
// Config.SlowQueryThreshold. Trace carries the same structure a traced
// request returns — always the phases and cache state; pull-level
// detail when the request was also traced.
type SlowQuery struct {
	Mode           string    `json:"mode"`
	Relations      []string  `json:"relations"`
	K              int       `json:"k"`
	Algorithm      string    `json:"algorithm"`
	Outcome        string    `json:"outcome"`
	DurationMicros int64     `json:"durationMicros"`
	Trace          api.Trace `json:"trace"`
}

// logSlowQuery emits one SlowQuery line. Marshal failures are
// impossible for this shape (plain structs, no cycles) and would only
// lose a log line; write failures are the sink's problem.
func (x *Executor) logSlowQuery(req *api.Request, o *queryObs, dur time.Duration, outcome string) {
	rec := SlowQuery{
		Mode:           o.mode,
		Relations:      req.Relations,
		K:              req.K,
		Algorithm:      o.algo,
		Outcome:        outcome,
		DurationMicros: dur.Microseconds(),
		Trace:          *o.trace(),
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	x.slowMu.Lock()
	defer x.slowMu.Unlock()
	_, _ = x.cfg.SlowQueryLog.Write(append(line, '\n'))
}

// isInfOrNaN reports whether f cannot be represented in JSON.
func isInfOrNaN(f float64) bool { return math.IsInf(f, 0) || math.IsNaN(f) }
