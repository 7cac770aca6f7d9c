package service

import (
	"context"
	"errors"

	proxrank "repro"
	"repro/api"
	"repro/internal/broker"
)

// lead starts the engine run behind a flight call — the only place an
// engine starts. Admission and session setup are synchronous, so slot
// and setup failures still surface before any event; then one goroutine
// drives the run at engine speed, independent of how fast anyone reads:
// publish into the call's topic, cache the response, hand back the slot
// and the sources the moment enumeration finishes, then settle the
// flight and close the topic. A streaming leader gets its own
// subscription; a batch leader waits on the call like a follower.
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
func (x *Executor) lead(ctx context.Context, req *api.Request, query proxrank.Vector, opts proxrank.Options, entries []*Entry, c *flightCall, stream bool) (sub *broker.Sub[api.ResultEvent], aerr *api.Error) {
	started := false
	defer func() {
		if started {
			return
		}
		if aerr == nil {
			// A panic is unwinding through setup: retire the flight so
			// followers retry instead of waiting on a key that never settles.
			aerr = api.Errorf(api.CodeInternal, "query leader aborted")
		}
		x.flight.leave(c, nil, aerr)
	}()
	if err := ctx.Err(); err != nil {
		x.canceled.Add(1)
		return nil, asAPIError(err)
	}
	q, missing, endSession, aerr := x.openSession(ctx, query, opts, entries, req.Partial != api.PartialForbid)
	if aerr != nil {
		return nil, aerr
	}

	x.engineRuns.Add(1)
	// The log's room is the run's whole output: K results and a summary.
	topic := broker.New[api.ResultEvent](opts.K+1, 0)
	topic.Attach(x.bins)
	if stream {
		x.streamsBrokered.Add(1)
		sub = topic.Subscribe(broker.PolicyBlock)
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
		ans := &answer{} // its response stays nil if the run fails
		var err error    // an interface, so that success settles as a true nil
		defer func() {
			// Detached from any request handler: uncontained, an engine
			// panic here would kill the whole process, not one query.
			if r := recover(); r != nil {
				x.failed.Add(1)
				ans.resp, err = nil, api.Errorf(api.CodeInternal, "query leader panicked: %v", r)
			}
			// The session ends here, on every exit — q.Close, the pruning
			// counters, the slot — and before the flight settles: a batch
			// caller returns the instant done closes, and InFlight and the
			// counters must already account for its query.
			endSession()
			engCancel()
			x.flight.leave(c, ans, err)
			topic.Close(err)
		}()
		resp, runErr := x.publishRun(engCtx, q, opts, entries, missing, topic)
		ans.resp = resp
		if runErr != nil {
			aerr := asAPIError(runErr)
			err = aerr
			if aerr.Code != api.CodeTimeout && aerr.Code != api.CodeCanceled {
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
			x.cache.put(req.Canonical(), entries, ans)
		}
	}()
	return sub, nil
}

// publishRun drives the engine to completion at engine speed, publishing
// every certified result (and the DNF best-effort tail, matching the
// batch contract) plus the trailing summary into the topic, which never
// waits on a consumer. An engine failure comes back raw — the caller
// decides how to classify and count it. Each result event points at its
// element of the response's Results, so a combination is converted to
// wire form once; the slice is allocated at its K ceiling and must never
// grow, which would strand the published pointers on the old backing
// array.
func (x *Executor) publishRun(ctx context.Context, q *proxrank.Query, opts proxrank.Options, entries []*Entry, missing func() []api.MissingShard, topic *broker.Topic[api.ResultEvent]) (*api.Response, error) {
	results := make([]api.Combination, 0, opts.K)
	gap := x.m.newGapObserver(opts.Algorithm)
	dnf, err := q.Drain(ctx, func(c proxrank.Combination) {
		gap()
		results = append(results, wireCombination(c, entries))
		topic.Publish(api.ResultEvent{Type: api.EventResult, Rank: len(results), Result: &results[len(results)-1]})
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
	topic.Publish(api.ResultEvent{Type: api.EventSummary, Summary: summaryOf(resp, false)})
	return resp, nil
}

// summaryOf is the trailing summary of a response's stream, marked
// cached on a replay. The degraded fields carry over (a replay reaches
// them only via the flight: degraded responses are never cached).
func summaryOf(resp *api.Response, cached bool) *api.Summary {
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

// delivered folds the outcome of one write to a consumer. One that fails
// is the client going away, whichever loop was feeding it — counted and
// reported as a cancellation, never as a server fault.
func (x *Executor) delivered(err error) error {
	if err != nil {
		x.canceled.Add(1)
		return api.Errorf(api.CodeCanceled, "stream sink: %v", err)
	}
	return nil
}

// drainSub delivers one subscription to one sink at the sink's own pace
// — the consumer half of brokered delivery. markCached rewrites the
// summary on a copy (events are shared across subscribers) the way
// replayResponse marks a replay. retry reports that the run itself
// failed before this consumer delivered anything — a follower's cue to
// retry the flight instead of inheriting the leader's failure. idle, when
// set, is called before each read that would wait for the engine.
func (x *Executor) drainSub(ctx context.Context, sub *broker.Sub[api.ResultEvent], sink EventSink, idle func(), markCached bool) (retry bool, _ error) {
	// Detach on every exit: the subscriber gauge counts live consumers.
	defer sub.Cancel()
	for delivered := 0; ; delivered++ {
		if idle != nil && !sub.Ready() {
			idle()
		}
		ev, err := sub.Next(ctx)
		switch {
		case err == nil:
			if markCached && ev.Type == api.EventSummary && ev.Summary != nil {
				s := *ev.Summary
				s.Cached = true
				ev.Summary = &s
			}
			if err := x.delivered(sink(ev)); err != nil {
				return false, err
			}
		case errors.Is(err, broker.ErrDone):
			return false, nil
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

// replayResponse hands a settled answer to a caller that did not lead
// its run — a cache hit, or a follower of a settled flight — and is the
// only place a replay happens. A batch caller gets a copy marked cached,
// a stream caller the response as events, summary marked cached; a
// transport (wire set) gets the answer's shared wire form instead of the
// events, and beside the copy — bytes encoded once however often they
// are replayed.
func (x *Executor) replayResponse(a *answer, o *queryObs, sink EventSink, wire func([]byte) error) (*api.Response, error) {
	var form []byte
	if wire != nil {
		form = a.form(sink != nil, &x.formsBuilt)
	}
	if sink == nil {
		hit := *a.resp // shallow copy; the shared value stays immutable
		hit.Cached = true
		if form != nil {
			_ = wire(form) // a batch transport only keeps it
		}
		return &hit, nil
	}
	defer o.phase(api.PhaseDrain)
	if form != nil {
		o.firstEvent()
		return nil, x.delivered(wire(form))
	}
	return nil, replayEvents(a.resp, func(ev api.ResultEvent) error { return x.delivered(sink(ev)) })
}

// recordOutcome folds one finished engine run into the counters and the
// per-run engine cost distributions.
func (x *Executor) recordOutcome(stats proxrank.Stats) {
	x.completed.Add(1)
	x.totalSumDepths.Add(int64(stats.SumDepths))
	x.totalCombinations.Add(stats.CombinationsFormed)
	x.totalBoundUpdates.Add(stats.BoundUpdates)
	x.totalEngineMicros.Add(stats.TotalTime.Microseconds())
	x.m.sumDepths.Observe(float64(stats.SumDepths))
	if stats.CombinationsFormed > 0 {
		x.m.pruneRatio.Observe(float64(stats.CombinationsPruned) / float64(stats.CombinationsFormed))
	}
}
