package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
)

// collectEvents runs ExecuteStream and gathers the event sequence.
func collectEvents(t *testing.T, x *Executor, req *api.Request) ([]api.ResultEvent, error) {
	t.Helper()
	var events []api.ResultEvent
	err := x.ExecuteStream(context.Background(), req, func(ev api.ResultEvent) error {
		events = append(events, ev)
		return nil
	})
	return events, err
}

// TestExecuteStreamEvents: a live stream delivers rank-ordered result
// events, exactly one trailing summary, and collected results identical
// to the batch path.
func TestExecuteStreamEvents(t *testing.T) {
	cat, names := testSetup(t, 2, 40, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})
	req := baseRequest(names)
	req.NoCache = true

	events, err := collectEvents(t, x, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != req.K+1 {
		t.Fatalf("%d events, want %d results + 1 summary", len(events), req.K)
	}
	for i, ev := range events[:req.K] {
		if ev.Type != api.EventResult || ev.Rank != i+1 || ev.Result == nil {
			t.Fatalf("event %d: %+v, want result rank %d", i, ev, i+1)
		}
	}
	sum := events[req.K]
	if sum.Type != api.EventSummary || sum.Summary == nil || sum.Summary.Count != req.K || sum.Summary.Cached || sum.Summary.DNF {
		t.Fatalf("bad summary: %+v", sum)
	}
	if sum.Summary.Cost.SumDepths <= 0 {
		t.Fatalf("summary carries no cost: %+v", sum.Summary.Cost)
	}

	batch, err := x.Execute(context.Background(), baseRequestNoCache(names))
	if err != nil {
		t.Fatal(err)
	}
	collected, aerr := api.CollectStream(events)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(collected.Results, batch.Results) {
		t.Fatalf("stream results differ from batch:\n%v\n%v", collected.Results, batch.Results)
	}
	if st := x.Stats(); st.Streamed != 1 || st.Queries != 2 {
		t.Errorf("counters: %+v", st)
	}
}

func baseRequestNoCache(names []string) *api.Request {
	r := baseRequest(names)
	r.NoCache = true
	return r
}

// TestExecuteStreamDNF: a capped stream delivers the certified prefix,
// then the batch path's uncertified best-effort tail, then a summary
// flagged DNF — so collected results match the batch DNF response.
func TestExecuteStreamDNF(t *testing.T) {
	cat, names := testSetup(t, 2, 60, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})
	req := baseRequestNoCache(names)
	req.K = 10
	req.MaxSumDepths = 6

	events, err := collectEvents(t, x, req)
	if err != nil {
		t.Fatal(err)
	}
	collected, aerr := api.CollectStream(events)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !collected.DNF {
		t.Fatal("summary not flagged DNF")
	}
	req2 := baseRequestNoCache(names)
	req2.K = 10
	req2.MaxSumDepths = 6
	batch, err := x.Execute(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !batch.DNF {
		t.Fatal("batch twin not DNF")
	}
	if !reflect.DeepEqual(collected.Results, batch.Results) {
		t.Fatalf("capped stream differs from capped batch:\n%v\n%v", collected.Results, batch.Results)
	}
}

// TestExecuteStreamValidation: failures before the first event come back
// as plain structured errors with no events emitted.
func TestExecuteStreamValidation(t *testing.T) {
	cat, names := testSetup(t, 2, 20, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})
	for _, tc := range []struct {
		name   string
		mutate func(*api.Request)
		code   api.ErrorCode
	}{
		{"bad k", func(r *api.Request) { r.K = 0 }, api.CodeBadRequest},
		{"unknown relation", func(r *api.Request) { r.Relations = []string{"A", "ghost"} }, api.CodeNotFound},
		{"dim mismatch", func(r *api.Request) { r.Query = []float64{1, 2, 3} }, api.CodeBadRequest},
	} {
		req := baseRequest(names)
		tc.mutate(req)
		events, err := collectEvents(t, x, req)
		if len(events) != 0 {
			t.Errorf("%s: %d events before the error", tc.name, len(events))
		}
		ae := asAPIError(err)
		if ae == nil || ae.Code != tc.code {
			t.Errorf("%s: error %v, want code %s", tc.name, err, tc.code)
		}
	}
}

// gate blocks wrapped sources until permits arrive (or the floodgate
// opens), to hold an engine run mid-flight deterministically.
type gate struct {
	permits chan struct{}
	open    chan struct{} // closed = unlimited permits
	started chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{
		permits: make(chan struct{}, 1<<16),
		open:    make(chan struct{}),
		started: make(chan struct{}),
	}
}

type gatedSource struct {
	proxrank.Source
	g *gate
}

func (s gatedSource) Next() (proxrank.Tuple, error) {
	s.g.once.Do(func() { close(s.g.started) })
	select {
	case <-s.g.open:
	case <-s.g.permits:
	}
	return s.Source.Next()
}

// TestExecuteStreamCoalescesWithBatch: while a stream leader holds the
// single-flight key, an identical batch query joins as follower and is
// served the leader's response — one engine run across consumption
// models, keyed by the canonical encoding.
func TestExecuteStreamCoalescesWithBatch(t *testing.T) {
	cat, names := testSetup(t, 2, 24, 2)
	x := NewExecutor(cat, Config{Workers: 4, CacheSize: 16})
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }

	req := baseRequest(names)
	streamDone := make(chan error, 1)
	var events []api.ResultEvent
	go func() {
		streamDone <- x.ExecuteStream(context.Background(), req, func(ev api.ResultEvent) error {
			events = append(events, ev)
			return nil
		})
	}()
	<-g.started // leader owns the flight key and is parked on the gate

	batchDone := make(chan struct{})
	var batchResp *api.Response
	var batchErr error
	go func() {
		defer close(batchDone)
		batchResp, batchErr = x.Execute(context.Background(), baseRequest(names))
	}()
	// Give the follower a moment to join the flight, then open the gate.
	time.Sleep(50 * time.Millisecond)
	close(g.open)

	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
	<-batchDone
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	collected, aerr := api.CollectStream(events)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(collected.Results, batchResp.Results) {
		t.Fatalf("coalesced batch differs from stream leader:\n%v\n%v", collected.Results, batchResp.Results)
	}
	if !batchResp.Cached {
		t.Error("follower response not marked cached")
	}
	st := x.Stats()
	if st.Coalesced != 1 || st.EngineRuns != 1 {
		t.Errorf("coalesced %d engineRuns %d, want 1/1", st.Coalesced, st.EngineRuns)
	}
}

// readEvent decodes one NDJSON line.
func readEvent(t *testing.T, br *bufio.Reader) (api.ResultEvent, json.RawMessage) {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading stream line: %v", err)
	}
	var ev struct {
		Type   api.EventType   `json:"type"`
		Rank   int             `json:"rank"`
		Result json.RawMessage `json:"result"`
		Error  *api.Error      `json:"error"`
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("bad stream line %q: %v", line, err)
	}
	return api.ResultEvent{Type: ev.Type, Rank: ev.Rank, Error: ev.Error}, ev.Result
}

// TestHTTPStreamDeliversBeforeCompletion is the acceptance test for the
// streaming endpoint: with the engine's sources gated behind permits,
// the client reads the rank-1 result while the run is provably still in
// flight (the engine cannot finish: it would need more permits than
// were granted), and after the gate opens the collected results are
// byte-identical to POST /v1/query for the same request.
func TestHTTPStreamDeliversBeforeCompletion(t *testing.T) {
	cat, names := testSetup(t, 2, 12, 2)
	exec := NewExecutor(cat, Config{Workers: 2, CacheSize: 16, DefaultTimeout: time.Minute})
	g := newGate()
	exec.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }
	srv := httptest.NewServer(NewServer(cat, exec).Handler())
	t.Cleanup(srv.Close)

	// K beyond the full cross product forces the run to drain every
	// tuple, so it cannot complete while any pull is still gated.
	req := baseRequest(names)
	req.K = 150 // 12 × 12 = 144 combinations
	req.NoCache = true
	total := 24 // tuples across both relations

	// Drip at most total−1 permits: enough to certify rank 1 (the probe
	// says ~9 pulls), never enough to finish the run (which needs every
	// tuple plus one exhaustion read per source). If the endpoint
	// buffered results until completion, the header/first-line reads
	// below would block forever and the test would time out — the
	// failure mode, not a flake.
	stopDrip := make(chan struct{})
	go func() {
		for i := 0; i < total-1; i++ {
			select {
			case <-stopDrip:
				return
			case g.permits <- struct{}{}:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	ev, raw := readEvent(t, br)
	close(stopDrip)
	if ev.Type != api.EventResult || ev.Rank != 1 || raw == nil {
		t.Fatalf("first line is %+v, want the rank-1 result", ev)
	}
	if inflight := exec.Stats().InFlight; inflight != 1 {
		t.Fatalf("rank-1 result arrived but no engine run is in flight (inFlight=%d)", inflight)
	}

	// Open the gate, drain the stream, and collect the result bytes.
	close(g.open)
	streamResults := []json.RawMessage{raw}
	var sawSummary bool
	for !sawSummary {
		ev, raw := readEvent(t, br)
		switch ev.Type {
		case api.EventResult:
			streamResults = append(streamResults, raw)
		case api.EventSummary:
			sawSummary = true
		case api.EventError:
			t.Fatalf("stream failed: %v", ev.Error)
		}
	}
	if len(streamResults) != 144 {
		t.Fatalf("stream delivered %d results, want 144", len(streamResults))
	}

	// Byte-identity with the batch endpoint.
	exec.wrapSource = nil
	httpResp, data, err := postTopK(srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", httpResp.StatusCode, data)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(streamResults) {
		t.Fatalf("batch %d results, stream %d", len(batch.Results), len(streamResults))
	}
	for i := range batch.Results {
		if !bytes.Equal(compactJSON(t, batch.Results[i]), compactJSON(t, streamResults[i])) {
			t.Fatalf("result %d differs:\nbatch:  %s\nstream: %s", i, batch.Results[i], streamResults[i])
		}
	}
}

// compactJSON normalizes whitespace so raw fragments from different
// encoders compare byte-for-byte.
func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryEndpointsEquivalent: /v1/query and the collected output of
// /v1/query/stream answer one request with byte-identical result arrays,
// across the live, cache-hit, and replayed paths.
func TestQueryEndpointsEquivalent(t *testing.T) {
	srv, names, exec := testServer(t)
	req := &api.Request{Query: []float64{0.2, -0.15}, Relations: names, K: 5}
	post := func(path string) []byte {
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// A live run, then a cache hit.
	live := post("/v1/query")
	hit := post("/v1/query")
	var a, b struct {
		Results json.RawMessage `json:"results"`
		Cached  bool            `json:"cached"`
	}
	if err := json.Unmarshal(live, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hit, &b); err != nil {
		t.Fatal(err)
	}
	if a.Cached || !b.Cached {
		t.Fatalf("expected live-then-cached, got %v/%v", a.Cached, b.Cached)
	}
	if !bytes.Equal(compactJSON(t, a.Results), compactJSON(t, b.Results)) {
		t.Fatalf("live and cached results differ:\n%s\n%s", a.Results, b.Results)
	}

	// The stream replays the same cached response event by event.
	stream := post("/v1/query/stream")
	var streamResults []json.RawMessage
	cachedSummary := false
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var ev struct {
			Type    api.EventType   `json:"type"`
			Result  json.RawMessage `json:"result"`
			Summary *api.Summary    `json:"summary"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch ev.Type {
		case api.EventResult:
			streamResults = append(streamResults, ev.Result)
		case api.EventSummary:
			cachedSummary = ev.Summary.Cached
		}
	}
	if !cachedSummary {
		t.Error("stream summary not marked cached on a cache hit")
	}
	joined := append([]byte("["), bytes.Join(mapCompact(t, streamResults), []byte(","))...)
	joined = append(joined, ']')
	if !bytes.Equal(compactJSON(t, a.Results), joined) {
		t.Fatalf("stream results differ from batch:\n%s\n%s", a.Results, joined)
	}
	if st := exec.Stats(); st.CacheHits != 2 {
		t.Errorf("cacheHits = %d, want 2", st.CacheHits)
	}
}

func mapCompact(t *testing.T, raws []json.RawMessage) [][]byte {
	out := make([][]byte, len(raws))
	for i, r := range raws {
		out[i] = compactJSON(t, r)
	}
	return out
}

// flushCounter is a ResponseWriter that counts its flushes; before its
// first it runs hold, which may stall the reader as a slow client would.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
	hold    func()
}

func (f *flushCounter) Flush() {
	if f.flushes == 0 && f.hold != nil {
		f.hold()
	}
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestHTTPStreamCoalescesFlushes: the first result is flushed at once;
// later lines only when the drain would wait for the engine, and when
// the stream ends. Here the first flush is held until the run has
// finished, so every later line is pending by then and the K = 20 answer
// leaves in two flushes (a flush a line made 22).
func TestHTTPStreamCoalescesFlushes(t *testing.T) {
	cat, names := testSetup(t, 2, 40, 2)
	exec := NewExecutor(cat, Config{Workers: 2, CacheSize: 16, DefaultTimeout: time.Minute})
	h := NewServer(cat, exec).Handler()
	req := baseRequest2(names, 20)
	req.NoCache = true
	body, _ := json.Marshal(req)
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder(), hold: func() {
		for deadline := time.Now().Add(10 * time.Second); exec.Stats().InFlight != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the run never finished")
				return
			}
		}
	}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query/stream", bytes.NewReader(body)))
	br := bufio.NewReader(bytes.NewReader(w.Body.Bytes()))
	results := 0
	for ev, _ := readEvent(t, br); ev.Type != api.EventSummary; ev, _ = readEvent(t, br) {
		if ev.Type != api.EventResult {
			t.Fatalf("unexpected %q event", ev.Type)
		}
		results++
	}
	if results != 20 {
		t.Fatalf("%d results, want 20", results)
	}
	if w.flushes < 1 || w.flushes > 3 {
		t.Fatalf("%d flushes for a 22-line stream, want at most 3", w.flushes)
	}
}
