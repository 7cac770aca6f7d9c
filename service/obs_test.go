package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/obs"
)

// scrape fetches /metrics, validates the exposition, and returns the
// body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	return string(body)
}

// familySum adds up every sample of name (all label sets) in an
// exposition body.
func familySum(t *testing.T, body, name string) float64 {
	t.Helper()
	total, seen := 0.0, false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Exact name: next char is '{' (labels) or a space (plain sample);
		// anything else is a longer name sharing the prefix.
		if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		total += v
		seen = true
	}
	if !seen {
		t.Fatalf("no samples for family %s", name)
	}
	return total
}

// drainStream posts one streaming query and reads NDJSON lines to the
// end, returning the raw event lines.
func drainStream(t *testing.T, baseURL string, req *api.Request) []string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(baseURL+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestMetricsInvariants runs a small mixed batch/stream workload over
// HTTP and asserts the accounting identities the families promise:
// cache hits plus misses equal the requests that consulted the cache,
// the per-request histograms saw every request, and TTFE never exceeds
// total latency.
func TestMetricsInvariants(t *testing.T) {
	srv, names, _ := testServer(t)

	// 4 distinct queries, each asked twice batch and once streamed: the
	// repeats are cache hits.
	for i := 0; i < 4; i++ {
		req := &api.Request{Query: []float64{float64(i) * 0.03, -0.1}, Relations: names, K: 3}
		for rep := 0; rep < 2; rep++ {
			body, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d", resp.StatusCode)
			}
		}
		drainStream(t, srv.URL, req)
	}

	body := scrape(t, srv.URL)
	queries := familySum(t, body, "proxrank_queries_total")
	hits := familySum(t, body, "proxrank_cache_hits_total")
	misses := familySum(t, body, "proxrank_cache_misses_total")
	if queries != 12 {
		t.Fatalf("queries_total = %v, want 12", queries)
	}
	// Every request here was cacheable, so each either hit or missed.
	if hits+misses != queries {
		t.Fatalf("hits(%v) + misses(%v) != queries(%v)", hits, misses, queries)
	}
	if hits < 4 {
		t.Fatalf("hits = %v, want >= 4 (each repeated query)", hits)
	}
	durCount := familySum(t, body, "proxrank_query_duration_seconds_count")
	if durCount != queries {
		t.Fatalf("duration histogram saw %v requests, want %v", durCount, queries)
	}
	ttfeCount := familySum(t, body, "proxrank_query_ttfe_seconds_count")
	if ttfeCount != queries {
		t.Fatalf("ttfe histogram saw %v requests, want %v", ttfeCount, queries)
	}
	// TTFE <= total duration per request, so the sums obey it too.
	durSum := familySum(t, body, "proxrank_query_duration_seconds_sum")
	ttfeSum := familySum(t, body, "proxrank_query_ttfe_seconds_sum")
	if ttfeSum > durSum {
		t.Fatalf("ttfe sum %v exceeds duration sum %v", ttfeSum, durSum)
	}
	// The engine cost distribution saw every engine run.
	runs := familySum(t, body, "proxrank_engine_runs_total")
	depthCount := familySum(t, body, "proxrank_engine_sum_depths_count")
	if depthCount != runs {
		t.Fatalf("sum_depths histogram saw %v runs, want %v", depthCount, runs)
	}
	// Bounded runs prune nearly everything they form: the ratio histogram
	// has to resolve above 0.99.
	if !strings.Contains(body, `proxrank_engine_prune_ratio_bucket{le="0.999"}`) {
		t.Fatal("prune ratio histogram has no 0.999 bucket")
	}
}

// statsFamilies maps every StatsSnapshot field to the /metrics family
// that serves it, with the factor taking the family's unit to the
// field's (seconds to micros).
var statsFamilies = map[string]struct {
	family string
	scale  float64
}{
	"Queries":             {"proxrank_queries_total", 1},
	"Streamed":            {"proxrank_queries_streamed_total", 1},
	"Completed":           {"proxrank_queries_completed_total", 1},
	"CacheHits":           {"proxrank_cache_hits_total", 1},
	"CacheMisses":         {"proxrank_cache_misses_total", 1},
	"Coalesced":           {"proxrank_coalesced_total", 1},
	"CacheEntries":        {"proxrank_cache_entries", 1},
	"Canceled":            {"proxrank_canceled_total", 1},
	"BadRequests":         {"proxrank_bad_requests_total", 1},
	"Failed":              {"proxrank_failed_total", 1},
	"Rejected":            {"proxrank_rejected_total", 1},
	"InFlight":            {"proxrank_in_flight", 1},
	"Queued":              {"proxrank_queued", 1},
	"Degraded":            {"proxrank_degraded_queries_total", 1},
	"EngineRuns":          {"proxrank_engine_runs_total", 1},
	"StreamsBrokered":     {"proxrank_streams_brokered_total", 1},
	"MidRunAttaches":      {"proxrank_stream_midrun_attaches_total", 1},
	"StreamSubscribers":   {"proxrank_stream_subscribers", 1},
	"TotalSumDepths":      {"proxrank_engine_sum_depths_total", 1},
	"TotalCombinations":   {"proxrank_engine_combinations_total", 1},
	"TotalBoundUpdates":   {"proxrank_engine_bound_updates_total", 1},
	"TotalEngineMicros":   {"proxrank_engine_seconds_total", 1e6},
	"RemoteStreamsOpened": {"proxrank_remote_streams_opened_total", 1},
	"ShardsPruned":        {"proxrank_shards_pruned_total", 1},
	"RemoteRowsConsumed":  {"proxrank_remote_rows_consumed_total", 1},
}

// TestStatsAndMetricsAgree asserts /metrics serves every field of the
// in-process snapshot: after a workload, Executor.Stats and GET /metrics
// report identical numbers for all 25 fields, and a field without a
// family, or a family without a field, fails.
func TestStatsAndMetricsAgree(t *testing.T) {
	srv, names, exec := testServer(t)
	for i := 0; i < 3; i++ {
		req := &api.Request{Query: []float64{0.02 * float64(i), 0.2}, Relations: names, K: 4}
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		drainStream(t, srv.URL, req)
	}
	if resp, _, err := postTopK(srv.URL, &api.Request{Query: []float64{0, 0}, Relations: []string{"nope", "nada"}, K: 1}); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown relations: %v %v", resp, err)
	}

	st := exec.Stats()
	body := scrape(t, srv.URL)
	v := reflect.ValueOf(st)
	if v.NumField() != 25 || len(statsFamilies) != 25 {
		t.Errorf("StatsSnapshot has %d fields and statsFamilies %d entries, want 25 each", v.NumField(), len(statsFamilies))
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		m, ok := statsFamilies[name]
		if !ok {
			t.Errorf("StatsSnapshot.%s has no /metrics family", name)
			continue
		}
		stat := float64(v.Field(i).Int())
		// Scaled families read the same atomic in another unit: the
		// snapshot truncates to whole micros.
		if got := familySum(t, body, m.family) * m.scale; math.Abs(got-stat) > m.scale/1e6 {
			t.Errorf("%s = %v, Stats().%s = %v", m.family, got, name, stat)
		}
	}
	if st.Queries != 7 || st.BadRequests != 1 || st.EngineRuns == 0 || st.TotalSumDepths == 0 {
		t.Errorf("workload not counted: %+v", st)
	}
	// Every stream above ran to completion and was drained, so no
	// subscriber may linger.
	if st.StreamSubscribers != 0 {
		t.Errorf("streamSubscribers = %d after all streams drained", st.StreamSubscribers)
	}
}

// TestTracedMatchesUntracedBatch asserts the trace flag is a pure
// transport concern on the batch path: the canonical key is unchanged,
// a traced request shares the untraced request's cache entry, and the
// results are byte-identical — the trace rides alongside.
func TestTracedMatchesUntracedBatch(t *testing.T) {
	cat, names := testSetup(t, 2, 60, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})

	plain := baseRequest(names)
	traced := baseRequest(names)
	traced.Trace = true
	if a, b := plain.Canonical(), traced.Canonical(); a != b {
		t.Fatalf("trace flag changed the canonical key:\n  %s\n  %s", a, b)
	}

	// Fresh traced run: full pull-level detail.
	first, err := x.Execute(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace == nil {
		t.Fatal("traced run returned no trace")
	}
	if first.Trace.CacheState != api.CacheMiss {
		t.Fatalf("cacheState = %q, want miss", first.Trace.CacheState)
	}
	if len(first.Trace.Pulls) == 0 || len(first.Trace.Phases) == 0 {
		t.Fatalf("miss trace lacks detail: %d pulls, %d phases", len(first.Trace.Pulls), len(first.Trace.Phases))
	}
	for i, p := range first.Trace.Pulls {
		if p.Depth < 1 || p.Relation < 0 || p.Relation >= len(names) {
			t.Fatalf("pull %d out of range: %+v", i, p)
		}
	}

	// Untraced twin: must be the cache hit of the traced run, with no
	// trace attached and byte-identical results.
	second, err := x.Execute(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("untraced twin missed the cache — key diverged")
	}
	if second.Trace != nil {
		t.Fatal("untraced request carries a trace")
	}
	firstJSON, _ := json.Marshal(first.Results)
	secondJSON, _ := json.Marshal(second.Results)
	if !bytes.Equal(firstJSON, secondJSON) {
		t.Fatal("traced and untraced results differ")
	}

	// Traced hit: honest cache state, phases only.
	third, err := x.Execute(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if third.Trace == nil || third.Trace.CacheState != api.CacheHit {
		t.Fatalf("traced hit: trace %+v", third.Trace)
	}
	if len(third.Trace.Pulls) != 0 {
		t.Fatal("cache hit reports engine pulls it never made")
	}
}

// TestTracedMatchesUntracedStream asserts the same on the streaming
// path: the traced stream is the untraced stream plus exactly one
// terminal trace event after the summary.
func TestTracedMatchesUntracedStream(t *testing.T) {
	cat, names := testSetup(t, 2, 60, 2)
	// Two executors so both runs are fresh misses through the engine.
	xPlain := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})
	xTraced := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})

	plainEvents, err := collectEvents(t, xPlain, baseRequest(names))
	if err != nil {
		t.Fatal(err)
	}
	req := baseRequest(names)
	req.Trace = true
	tracedEvents, err := collectEvents(t, xTraced, req)
	if err != nil {
		t.Fatal(err)
	}

	if len(tracedEvents) != len(plainEvents)+1 {
		t.Fatalf("traced stream has %d events, want %d (untraced + trace)", len(tracedEvents), len(plainEvents)+1)
	}
	// Wall time is the one legitimately nondeterministic field; zero it
	// on a copy so the comparison pins everything else byte-for-byte.
	scrubbed := func(ev api.ResultEvent) []byte {
		if ev.Summary != nil {
			s := *ev.Summary
			s.Cost.ElapsedMicros = 0
			ev.Summary = &s
		}
		b, _ := json.Marshal(ev)
		return b
	}
	for i, plain := range plainEvents {
		a, b := scrubbed(plain), scrubbed(tracedEvents[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, a, b)
		}
	}
	last := tracedEvents[len(tracedEvents)-1]
	if last.Type != api.EventTrace || last.Trace == nil {
		t.Fatalf("terminal event is %q, want trace", last.Type)
	}
	if last.Trace.CacheState != api.CacheMiss {
		t.Fatalf("stream trace cacheState = %q, want miss", last.Trace.CacheState)
	}
	if len(last.Trace.Pulls) == 0 {
		t.Fatal("stream leader trace lacks pull detail")
	}
	var sawDrain bool
	for _, ph := range last.Trace.Phases {
		if ph.Name == api.PhaseDrain {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatalf("stream trace phases %+v lack a drain span", last.Trace.Phases)
	}
}

// TestSlowQueryLog asserts the threshold-driven log emits one SlowQuery
// JSON line per slow request, carrying the same trace structure.
func TestSlowQueryLog(t *testing.T) {
	cat, names := testSetup(t, 2, 60, 2)
	var buf bytes.Buffer
	x := NewExecutor(cat, Config{
		Workers:            2,
		CacheSize:          8,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       &buf,
	})
	if _, err := x.Execute(context.Background(), baseRequest(names)); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d slow-query lines, want 1", len(lines))
	}
	var rec SlowQuery
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %v", err)
	}
	if rec.Mode != "batch" || rec.Outcome != "ok" || rec.K != 3 {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if rec.DurationMicros <= 0 {
		t.Fatalf("durationMicros = %d", rec.DurationMicros)
	}
	if len(rec.Trace.Phases) == 0 {
		t.Fatal("slow-query record lacks phase spans")
	}
	// Not traced by the client, so no pull detail — phases only.
	if len(rec.Trace.Pulls) != 0 {
		t.Fatal("untraced slow query reports pull detail")
	}
}

// TestHTTPStreamTraceEvent asserts the NDJSON transport delivers the
// terminal trace event and that it follows the summary.
func TestHTTPStreamTraceEvent(t *testing.T) {
	srv, names, _ := testServer(t)
	req := &api.Request{Query: []float64{0.1, -0.2}, Relations: names, K: 3, Trace: true}
	lines := drainStream(t, srv.URL, req)
	if len(lines) < 2 {
		t.Fatalf("stream too short: %d lines", len(lines))
	}
	var summary, trace api.ResultEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &summary); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trace); err != nil {
		t.Fatal(err)
	}
	if summary.Type != api.EventSummary {
		t.Fatalf("penultimate event is %q, want summary", summary.Type)
	}
	if trace.Type != api.EventTrace || trace.Trace == nil || len(trace.Trace.Pulls) == 0 {
		t.Fatalf("terminal event is not a populated trace: %+v", trace)
	}
}
