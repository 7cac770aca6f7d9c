package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/relation"
	"repro/internal/shardrpc"
	"repro/service"
)

// replayStride picks every 17th request of the list for the replay pass:
// a prime, so the sample walks through every class of every workload's
// pattern (a stride of 16 would only ever land on even positions).
const replayStride = 17

// timedSource is the benchmark-owned wrapper handed to the engine in
// place of each relation's merged source: it times every sorted access
// from outside, so core's self time is its run span minus these.
type timedSource struct {
	inner proxrank.Source
	busy  *time.Duration
	pulls *int64
}

func (s *timedSource) Next() (proxrank.Tuple, error) {
	start := time.Now()
	t, err := s.inner.Next()
	*s.busy += time.Since(start)
	*s.pulls++
	return t, err
}

func (s *timedSource) Kind() proxrank.AccessKind    { return s.inner.Kind() }
func (s *timedSource) Relation() *proxrank.Relation { return s.inner.Relation() }

// ledger accumulates the replay pass: every sampled request walked
// single-threaded, in-process, through the same public calls the
// executor's prepare/buildSources/openSession make, each step a span.
type ledger struct {
	n int

	decode, normalize, canonical time.Duration
	options, resolve             time.Duration
	open, coreNew, coreRun       time.Duration
	sourceBusy                   time.Duration
	pulls                        int64

	miss      time.Duration
	hit       time.Duration
	hits      int
	ttfe      time.Duration
	encode    time.Duration
	encodeLen int64
	bound     time.Duration

	sumDepths, formed, pruned   int64
	boundUpdates, qpSolves      int64
	peakBuffered                int64
	spillRequests               int
	spilledBytes, spilledCombos int64

	// runByIndex keeps each replayed request's engine run span so a spill
	// request can be set against its prune twin.
	runByIndex map[int]time.Duration
	// remote shard streams opened / offered, per request class.
	opened, offered map[string]int64
}

func newLedger() *ledger {
	return &ledger{runByIndex: map[int]time.Duration{}, opened: map[string]int64{}, offered: map[string]int64{}}
}

// replaySelection lists the request indices the replay pass walks: every
// replayStride-th request up to limit, each followed by its twin.
func replaySelection(reqs []request, limit int) []int {
	var sel []int
	for i := 0; i < len(reqs) && len(sel) < limit; i += replayStride {
		sel = append(sel, i)
		if j := reqs[i].twin; j >= 0 {
			sel = append(sel, j)
		}
	}
	return sel
}

// openSources builds one merged source per relation the way the
// executor's buildSources does: every local shard's ordered stream merged
// by Sharded.Merge, or every remote shard's lazy RemoteSource merged by
// NewMergedSource. The returned remotes must be closed by the caller.
func openSources(ctx context.Context, entries []*service.Entry, access proxrank.AccessKind, query proxrank.Vector) ([]proxrank.Source, []*shardrpc.RemoteSource, error) {
	wire := api.AccessDistance
	if access == proxrank.ScoreAccess {
		wire = api.AccessScore
	}
	var remotes []*shardrpc.RemoteSource
	sources := make([]proxrank.Source, len(entries))
	for i, e := range entries {
		if rr := e.Remote(); rr != nil {
			keyed := make([]relation.KeyedSource, rr.Shards)
			for s := range keyed {
				rs, err := shardrpc.OpenRemoteShard(ctx, e.Relation(), rr, s, wire, query, 0)
				if err != nil {
					return nil, remotes, err
				}
				rs.SetPartial(true)
				remotes = append(remotes, rs)
				keyed[s] = rs
			}
			merged, err := relation.NewMergedSource(e.Relation(), access, keyed)
			if err != nil {
				return nil, remotes, err
			}
			sources[i] = merged
			continue
		}
		shards := make([]proxrank.Source, e.Shards())
		for s := range shards {
			src, err := e.Sharded().ShardSource(s, access, query, nil, true)
			if err != nil {
				return nil, remotes, err
			}
			shards[s] = src
		}
		merged, err := e.Sharded().Merge(shards)
		if err != nil {
			return nil, remotes, err
		}
		sources[i] = merged
	}
	return sources, remotes, nil
}

// replay walks one request through the layers, adding its spans and
// counts to the ledger.
func (l *ledger) replay(ctx context.Context, t *topology, w *workload, in *inputs, idx int, r *request, rec *spanRecorder) error {
	limits := api.Limits{MaxK: service.DefaultMaxK}
	// One discarded execution first, so the layer spans and the whole they
	// are set against both run on pages this query has already touched.
	miss := r.req
	miss.Trace = false
	miss.NoCache = true
	if _, err := t.exec.Execute(ctx, &miss); err != nil {
		return fmt.Errorf("execute (warm): %w", err)
	}
	reqStart := time.Now()
	root := rec.begin("replay.request", idx, 0, reqStart)
	step := func(name string, fn func() error) (time.Duration, error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		rec.add(name, idx, root, start, end)
		return end.Sub(start), err
	}

	// api: strict decode, Normalize, Canonical.
	var decoded api.Request
	d, err := step("api.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		return dec.Decode(&decoded)
	})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	l.decode += d
	norm := decoded
	d, err = step("api.normalize", func() error {
		if aerr := norm.Normalize(limits); aerr != nil {
			return aerr
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("normalize: %w", err)
	}
	l.normalize += d
	d, _ = step("api.canonical", func() error { _ = norm.Canonical(); return nil })
	l.canonical += d

	// facade: wire request → engine options (on the normalized copy, so
	// this is the translation plus an idempotent re-validation).
	var query proxrank.Vector
	var opts proxrank.Options
	translated := norm
	d, err = step("facade.options", func() error {
		var err error
		query, opts, err = proxrank.OptionsFromRequest(&translated, limits)
		return err
	})
	if err != nil {
		return fmt.Errorf("options: %w", err)
	}
	l.options += d
	if w.topology == topoRelfile {
		opts.SpillDir = in.spillDir
		opts.SpillMemBytes = spillMemBytes
	}

	var entries []*service.Entry
	d, err = step("service.resolve", func() error {
		var err error
		entries, err = t.cat.Resolve(norm.Relations)
		return err
	})
	if err != nil {
		return fmt.Errorf("resolve: %w", err)
	}
	l.resolve += d

	// relation: per-shard sources and the k-way merge.
	var sources []proxrank.Source
	var remotes []*shardrpc.RemoteSource
	closeRemotes := func() {
		for _, rs := range remotes {
			rs.Close()
		}
		remotes = nil
	}
	defer closeRemotes()
	d, err = step("relation.open", func() error {
		var err error
		sources, remotes, err = openSources(ctx, entries, opts.Access, query)
		return err
	})
	if err != nil {
		return fmt.Errorf("open sources: %w", err)
	}
	l.open += d

	// core: session construction and the run, sorted access timed apart.
	var busy time.Duration
	var pulls int64
	for i, src := range sources {
		sources[i] = &timedSource{inner: src, busy: &busy, pulls: &pulls}
	}
	var q *proxrank.Query
	d, err = step("core.new", func() error {
		var err error
		q, err = proxrank.NewQuerySources(query, sources, opts.BoundedToK())
		return err
	})
	if err != nil {
		return fmt.Errorf("new query: %w", err)
	}
	l.coreNew += d
	var res proxrank.Result
	runStart := time.Now()
	d, err = step("core.run", func() error {
		var err error
		res, err = q.RunContext(ctx)
		return err
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	rec.add("relation.next", idx, root, runStart, runStart.Add(busy))
	l.coreRun += d
	l.runByIndex[idx] = d
	l.sourceBusy += busy
	l.pulls += pulls
	for _, rs := range remotes {
		l.offered[r.class]++
		if rs.Opened() {
			l.opened[r.class]++
		}
	}
	closeRemotes()

	st := res.Stats
	l.sumDepths += int64(st.SumDepths)
	l.formed += st.CombinationsFormed
	l.pruned += st.CombinationsPruned
	l.boundUpdates += st.BoundUpdates
	l.qpSolves += st.QPSolves
	l.peakBuffered += int64(st.PeakBuffered)
	if r.class == "spill" {
		l.spillRequests++
		l.spilledBytes += st.SpilledBytes
		l.spilledCombos += st.SpilledCombinations
	}

	// bound: a separate pass with the engine's own per-pull clocks on, so
	// they do not tax core.run above.
	boundSources, boundRemotes, err := openSources(ctx, entries, opts.Access, query)
	remotes = boundRemotes
	if err != nil {
		return fmt.Errorf("open sources (bound pass): %w", err)
	}
	timed := opts.BoundedToK()
	timed.CollectTimings = true
	bq, err := proxrank.NewQuerySources(query, boundSources, timed)
	if err != nil {
		return fmt.Errorf("new query (bound pass): %w", err)
	}
	bres, err := bq.RunContext(ctx)
	if err != nil {
		return fmt.Errorf("run (bound pass): %w", err)
	}
	l.bound += bres.Stats.BoundTime
	closeRemotes()

	// service: the whole in-process execution, engine forced then cached.
	var resp *api.Response
	d, err = step("service.execute_miss", func() error {
		var err error
		resp, err = t.exec.Execute(ctx, &miss)
		return err
	})
	if err != nil {
		return fmt.Errorf("execute (miss): %w", err)
	}
	l.miss += d
	plain := r.req
	plain.Trace = false
	if w.cacheSize >= 0 {
		if _, err := t.exec.Execute(ctx, &plain); err != nil { // fill
			return fmt.Errorf("execute (fill): %w", err)
		}
		var hit *api.Response
		d, err = step("service.execute_hit", func() error {
			var err error
			hit, err = t.exec.Execute(ctx, &plain)
			return err
		})
		if err != nil {
			return fmt.Errorf("execute (hit): %w", err)
		}
		if !hit.Cached {
			return fmt.Errorf("execute (hit): repeat of request %d was not served from the cache", idx)
		}
		l.hit += d
		l.hits++
	}
	streamStart := time.Now()
	var first time.Time
	err = t.exec.ExecuteStream(ctx, &plain, func(ev api.ResultEvent) error {
		if first.IsZero() && ev.Type == api.EventResult {
			first = time.Now()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("execute stream: %w", err)
	}
	if first.IsZero() {
		return fmt.Errorf("execute stream: request %d delivered no result event", idx)
	}
	rec.add("service.stream_ttfe", idx, root, streamStart, first)
	l.ttfe += first.Sub(streamStart)

	d, err = step("encode.response", func() error {
		buf, err := json.Marshal(resp)
		l.encodeLen += int64(len(buf))
		return err
	})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	l.encode += d
	rec.end(root, time.Now())
	l.n++
	return nil
}

// usPer is a summed duration as mean microseconds per n items.
func usPer(d time.Duration, n int) float64 {
	return ratio(float64(d.Nanoseconds())/1e3, float64(n))
}

// metrics renders the ledger as per-layer metrics (means per replayed
// request).
func (l *ledger) metrics(reqs []request, out map[string]float64) {
	n := l.n
	per := func(v int64) float64 { return ratio(float64(v), float64(n)) }
	out["api.decode_us"] = usPer(l.decode, n)
	out["api.normalize_us"] = usPer(l.normalize, n)
	out["api.canonical_us"] = usPer(l.canonical, n)
	out["facade.options_us"] = usPer(l.options, n)
	out["service.resolve_us"] = usPer(l.resolve, n)
	out["relation.open_us"] = usPer(l.open, n)
	out["relation.next_us_per_pull"] = ratio(float64(l.sourceBusy.Nanoseconds())/1e3, float64(l.pulls))
	out["relation.pulls"] = per(l.pulls)
	out["core.new_us"] = usPer(l.coreNew, n)
	out["core.run_us"] = usPer(l.coreRun, n)
	out["core.self_us"] = usPer(l.coreRun-l.sourceBusy, n)
	out["core.bound_us"] = usPer(l.bound, n)
	out["service.execute_miss_us"] = usPer(l.miss, n)
	out["service.execute_hit_us"] = usPer(l.hit, l.hits)
	out["service.stream_ttfe_us"] = usPer(l.ttfe, n)
	out["service.self_us"] = usPer(l.miss-l.parts(), n)
	out["encode.response_us"] = usPer(l.encode, n)
	out["encode.response_bytes"] = per(l.encodeLen)

	out["core.sum_depths"] = per(l.sumDepths)
	out["core.combinations_formed"] = per(l.formed)
	out["core.combinations_pruned"] = per(l.pruned)
	out["core.prune_ratio"] = ratio(float64(l.pruned), float64(l.formed))
	out["core.bound_updates"] = per(l.boundUpdates)
	out["core.qp_solves"] = per(l.qpSolves)
	out["core.peak_buffered"] = per(l.peakBuffered)
	out["core.spill_bytes_per_query"] = ratio(float64(l.spilledBytes), float64(l.spillRequests))
	out["core.spilled_combinations"] = ratio(float64(l.spilledCombos), float64(l.spillRequests))

	var diff time.Duration
	pairs := 0
	for i, run := range l.runByIndex {
		if reqs[i].class != "spill" {
			continue
		}
		if twinRun, ok := l.runByIndex[reqs[i].twin]; ok {
			diff += run - twinRun
			pairs++
		}
	}
	out["core.spill_vs_prune_us"] = usPer(diff, pairs)

	for class, off := range l.offered {
		out["shardrpc.shards_pruned_ratio."+class] = ratio(float64(off-l.opened[class]), float64(off))
	}
}

// parts is the sum of the layer spans that make up one in-process miss.
func (l *ledger) parts() time.Duration {
	return l.normalize + l.options + l.resolve + l.open + l.coreNew + l.coreRun
}

// selfShareWarn is the share of service.execute_miss_us that may stay
// unattributed (service.self_us) before the ledger check warns.
const selfShareWarn = 0.15

// ledgerLines prints "the parts add up to the whole" for the report.
func (l *ledger) ledgerLines() []string {
	if l.n == 0 {
		return nil
	}
	whole := usPer(l.miss, l.n)
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"api.normalize", l.normalize},
		{"facade.options", l.options},
		{"service.resolve", l.resolve},
		{"relation.open", l.open},
		{"core.new", l.coreNew},
		{"core.run", l.coreRun},
		{"service.self", l.miss - l.parts()},
	}
	lines := []string{fmt.Sprintf("replay ledger over %d requests: service.execute_miss_us = %.1f us =", l.n, whole)}
	for _, p := range parts {
		us := usPer(p.d, l.n)
		lines = append(lines, fmt.Sprintf("    %-16s %10.1f us  %5.1f%%", p.name, us, 100*ratio(us, whole)))
	}
	lines = append(lines, fmt.Sprintf("    of core.run: sorted access (relation.next) %.1f us, core.self %.1f us",
		usPer(l.sourceBusy, l.n), usPer(l.coreRun-l.sourceBusy, l.n)))
	if self := usPer(l.miss-l.parts(), l.n); self > selfShareWarn*whole || self < -selfShareWarn*whole {
		lines = append(lines, fmt.Sprintf("    WARNING: service.self_us is %.1f%% of the whole (limit %.0f%%): the layer spans do not account for the request",
			100*ratio(self, whole), 100*selfShareWarn))
	}
	return lines
}
