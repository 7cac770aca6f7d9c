package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
)

// awkwardName is a relation name that needs both JSON and HTML escaping
// on the wire, so an envelope assembled by hand around the encoded
// results would not survive the byte comparison.
const awkwardName = `R"<1>`

// awkwardRelation is a relation under awkwardName with a non-ASCII
// attribute on every tuple.
func awkwardRelation(t testing.TB, seed int64) *proxrank.Relation {
	t.Helper()
	tuples := testRelation(t, awkwardName, seed, 60, 2).Tuples()
	for i := range tuples {
		tuples[i].Attrs = map[string]string{"é": `<` + strconv.Itoa(i) + `&>`}
	}
	rel, err := proxrank.NewRelation(awkwardName, 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// replayCatalog registers awkward beside a plain relation B.
func replayCatalog(t testing.TB, awkward *proxrank.Relation) (*Catalog, []string) {
	t.Helper()
	cat := NewCatalog()
	for _, r := range []*proxrank.Relation{awkward, testRelation(t, "B", 8, 60, 2)} {
		if err := cat.Register(r.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	return cat, []string{awkwardName, "B"}
}

// replayFixture is an executor and its routed handler over replayCatalog.
func replayFixture(t testing.TB, cfg Config) (*Catalog, *Executor, http.Handler, []string) {
	t.Helper()
	cat, names := replayCatalog(t, awkwardRelation(t, 7))
	x := NewExecutor(cat, cfg)
	return cat, x, NewServer(cat, x).Handler(), names
}

// post drives one request through the routed handler and returns what
// went on the wire. It reports rather than aborts, so worker goroutines
// may call it.
func post(t testing.TB, h http.Handler, path string, req *api.Request) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("POST %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

// eventLines encodes a response the way the event path puts it on the
// wire: one encoder line per result event, then the cached summary.
func eventLines(t testing.TB, resp *api.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range resp.Results {
		if err := enc.Encode(api.ResultEvent{Type: api.EventResult, Rank: i + 1, Result: &resp.Results[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(api.ResultEvent{Type: api.EventSummary, Summary: summaryOf(resp, true)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

func decodeEvents(t testing.TB, ndjson []byte) []api.ResultEvent {
	t.Helper()
	var events []api.ResultEvent
	dec := json.NewDecoder(bytes.NewReader(ndjson))
	for dec.More() {
		var ev api.ResultEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		events = append(events, ev)
	}
	return events
}

// TestReplayByteIdentity: a replay copies bytes that were encoded once,
// so what it writes must be exactly what encoding the same response
// afresh would have written — for the batch body and the stream lines,
// for a cache hit, a traced hit and a follower of a settled flight.
func TestReplayByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		edit func(*api.Request)
		dnf  bool
	}{
		{"k100", func(r *api.Request) { r.K = 100 }, false},
		{"k1", func(r *api.Request) { r.K = 1 }, false},
		{"dnf", func(r *api.Request) { r.K = 100; r.MaxSumDepths = 6 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, x, h, names := replayFixture(t, Config{Workers: 2, CacheSize: 16})
			req := baseRequest(names)
			tc.edit(req)

			miss := post(t, h, "/v1/query", req).Body.Bytes()
			hit, err := x.Execute(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Cached || hit.DNF != tc.dnf || len(hit.Results) == 0 {
				t.Fatalf("in-process repeat: cached %v dnf %v with %d results", hit.Cached, hit.DNF, len(hit.Results))
			}
			if !strings.Contains(string(miss), `"R\"\u003c1\u003e"`) || !strings.Contains(string(miss), `"é":"\u003c`) {
				t.Fatalf("fixture lost its escapes: %.300s", miss)
			}

			wantBatch := marshalLine(t, hit)
			for i := 0; i < 2; i++ {
				if got := post(t, h, "/v1/query", req).Body.Bytes(); !bytes.Equal(got, wantBatch) {
					t.Fatalf("batch hit %d differs from json.Marshal of the response:\n got %s\nwant %s", i, got, wantBatch)
				}
			}
			if asHit := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(asHit, wantBatch) {
				t.Fatalf("miss and hit differ in more than the cached marker:\nmiss %s\n hit %s", miss, wantBatch)
			}

			// The event path itself: an in-process stream hit, encoded the
			// way the handler encodes live events.
			var viaEvents bytes.Buffer
			enc := json.NewEncoder(&viaEvents)
			if err := x.ExecuteStream(context.Background(), req, func(ev api.ResultEvent) error { return enc.Encode(ev) }); err != nil {
				t.Fatal(err)
			}
			wantStream := eventLines(t, hit)
			if !bytes.Equal(viaEvents.Bytes(), wantStream) {
				t.Fatalf("event path differs from a fresh encoding:\n got %s\nwant %s", viaEvents.Bytes(), wantStream)
			}
			for i := 0; i < 2; i++ {
				rec := post(t, h, "/v1/query/stream", req)
				if !bytes.Equal(rec.Body.Bytes(), wantStream) {
					t.Fatalf("stream hit %d differs from the event path:\n got %s\nwant %s", i, rec.Body.Bytes(), wantStream)
				}
				if !rec.Flushed {
					t.Fatalf("stream hit %d was never flushed", i)
				}
			}
			collected, aerr := api.CollectStream(decodeEvents(t, wantStream))
			if aerr != nil {
				t.Fatal(aerr)
			}
			var decoded api.Response
			if err := json.Unmarshal(wantBatch, &decoded); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(collected, &decoded) {
				t.Fatalf("collected stream hit differs from the batch hit:\n%+v\n%+v", collected, decoded)
			}

			// Traced hits: the shared bytes plus this request's own trace.
			traced := *req
			traced.Trace = true
			got := post(t, h, "/v1/query", &traced).Body.Bytes()
			var withTrace api.Response
			if err := json.Unmarshal(got, &withTrace); err != nil {
				t.Fatalf("traced batch hit is not JSON: %v\n%s", err, got)
			}
			if withTrace.Trace == nil || withTrace.Trace.CacheState != api.CacheHit {
				t.Fatalf("traced batch hit carries trace %+v", withTrace.Trace)
			}
			want := *hit
			want.Trace = withTrace.Trace
			if wantBytes := marshalLine(t, &want); !bytes.Equal(got, wantBytes) {
				t.Fatalf("traced batch hit differs from json.Marshal with its trace:\n got %s\nwant %s", got, wantBytes)
			}
			got = post(t, h, "/v1/query/stream", &traced).Body.Bytes()
			if !bytes.HasPrefix(got, wantStream) {
				t.Fatalf("traced stream hit does not start with the shared lines:\n%s", got)
			}
			tail := decodeEvents(t, got[len(wantStream):])
			if len(tail) != 1 || tail[0].Type != api.EventTrace || tail[0].Trace == nil {
				t.Fatalf("traced stream hit ends in %+v, want one trace event", tail)
			}
			if ph := tail[0].Trace.Phases; len(ph) == 0 || ph[len(ph)-1].Name != api.PhaseDrain {
				t.Fatalf("the drain phase does not close the trace of a stream hit: %+v", ph)
			}
			if n := x.formsBuilt.Load(); n != 2 {
				t.Fatalf("%d wire forms built for one answer, want 2 (one batch, one stream)", n)
			}
			if st := x.Stats(); st.EngineRuns != 1 {
				t.Fatalf("EngineRuns = %d, want 1", st.EngineRuns)
			}
		})
	}
}

// TestReplaySettledFlightFollower: a follower of a settled flight is
// handed the same bytes a later cache hit is — the flight and the cache
// hold one answer.
func TestReplaySettledFlightFollower(t *testing.T) {
	_, x, h, names := replayFixture(t, Config{Workers: 2, CacheSize: 16})
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }
	req := baseRequest2(names, 100)
	// A forbid stream follower waits for the settled outcome instead of
	// attaching mid-run, so it is replayed rather than fed live events.
	forbid := *req
	forbid.Partial = api.PartialForbid

	leader := make(chan []byte, 1)
	go func() { leader <- post(t, h, "/v1/query", req).Body.Bytes() }()
	<-g.started // the leader owns the flight and is parked on the gate
	var batch, stream []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); batch = post(t, h, "/v1/query", req).Body.Bytes() }()
	go func() { defer wg.Done(); stream = post(t, h, "/v1/query/stream", &forbid).Body.Bytes() }()
	time.Sleep(50 * time.Millisecond) // let both join the flight
	close(g.open)
	wg.Wait()
	<-leader
	if st := x.Stats(); st.Coalesced != 2 || st.EngineRuns != 1 || st.MidRunAttaches != 0 {
		t.Fatalf("coalesced %d engineRuns %d midRunAttaches %d, want 2/1/0", st.Coalesced, st.EngineRuns, st.MidRunAttaches)
	}

	hit, err := x.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalLine(t, hit); !bytes.Equal(batch, want) {
		t.Fatalf("batch follower differs from json.Marshal of the response:\n got %s\nwant %s", batch, want)
	}
	if want := eventLines(t, hit); !bytes.Equal(stream, want) {
		t.Fatalf("stream follower differs from the event path:\n got %s\nwant %s", stream, want)
	}
	if got := post(t, h, "/v1/query", req).Body.Bytes(); !bytes.Equal(got, batch) {
		t.Fatal("cache hit differs from the follower of the run that filled the cache")
	}
	if got := post(t, h, "/v1/query/stream", req).Body.Bytes(); !bytes.Equal(got, stream) {
		t.Fatal("stream cache hit differs from the follower of the run that filled the cache")
	}
	if n := x.formsBuilt.Load(); n != 2 {
		t.Fatalf("%d wire forms built, want 2: the followers and the hits share one answer", n)
	}
}

// TestCacheReplacesDeadGeneration: a catalog write really ends the
// answers computed before it. Re-asked keys miss, and their new answers
// take the old ones' slots — the cache does not grow — while a run that
// outlived the write cannot put its stale answer back.
func TestCacheReplacesDeadGeneration(t *testing.T) {
	cat, names := testSetup(t, 2, 40, 2)
	x := NewExecutor(cat, Config{Workers: 4, CacheSize: 32})
	ctx := context.Background()
	keys := make([]*api.Request, 5)
	old := make([]string, len(keys))
	for i := range keys {
		keys[i] = baseRequest(names)
		keys[i].Query = []float64{0.1 * float64(i), -0.2}
		resp, err := x.Execute(ctx, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		old[i] = CanonicalResponse(resp)
	}

	// One more key whose run on the old generation is still parked when
	// the relation is replaced.
	late := baseRequest(names)
	late.Query = []float64{-0.3, 0.3}
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }
	lateDone := make(chan string, 1)
	go func() {
		resp, err := x.Execute(ctx, late)
		if err != nil {
			lateDone <- err.Error()
			return
		}
		lateDone <- CanonicalResponse(resp)
	}()
	<-g.started
	x.wrapSource = nil // runs from here on are not gated

	if err := cat.Replace(names[0], testRelation(t, names[0], 999, 40, 2), 1); err != nil {
		t.Fatal(err)
	}
	twin := NewExecutor(cat, Config{CacheSize: -1})
	fresh := func(req *api.Request) string {
		resp, err := twin.Execute(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return CanonicalResponse(resp)
	}
	entries := x.Stats().CacheEntries
	if entries != len(keys) {
		t.Fatalf("CacheEntries = %d before the re-asks, want %d", entries, len(keys))
	}
	for i, req := range keys {
		resp, err := x.Execute(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := CanonicalResponse(resp); resp.Cached || got == old[i] || got != fresh(req) {
			t.Fatalf("key %d after Replace: cached %v, equals old answer %v", i, resp.Cached, got == old[i])
		}
	}
	if got := x.Stats().CacheEntries; got != entries {
		t.Fatalf("CacheEntries = %d after re-asking every key, want %d: dead answers must be replaced in place", got, entries)
	}

	// The new generation answers the late key first; then the old run
	// settles and tries to cache what it computed.
	want := fresh(late)
	if resp, err := x.Execute(ctx, late); err != nil || resp.Cached || CanonicalResponse(resp) != want {
		t.Fatalf("late key on the new generation: %+v, %v", resp, err)
	}
	close(g.open)
	if stale := <-lateDone; stale == want {
		t.Fatal("the parked run answered from the new relation; the test lost its old generation")
	}
	runs := x.Stats().EngineRuns
	for i, req := range append(keys, late) {
		resp, err := x.Execute(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached || CanonicalResponse(resp) != fresh(req) {
			t.Fatalf("key %d: cached %v; want the new generation's answer from the cache", i, resp.Cached)
		}
	}
	if st := x.Stats(); st.EngineRuns != runs || st.CacheEntries != entries+1 {
		t.Fatalf("EngineRuns %d → %d, CacheEntries %d, want no new run and %d entries", runs, st.EngineRuns, st.CacheEntries, entries+1)
	}
}

// TestReplayConcurrentFirstHits: many callers take the first batch and
// the first stream hit of a fresh entry at the same instant, while a
// writer keeps replacing a relation under them. Each form of an answer is
// built once however many ask for it, and every answer is the fresh
// answer of a generation that was live during its request.
func TestReplayConcurrentFirstHits(t *testing.T) {
	cat, x, h, names := replayFixture(t, Config{Workers: 4, CacheSize: 64})
	ctx := context.Background()
	const callers = 16
	firstHits := func(req *api.Request, check func(caller int, got *api.Response)) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				if c%2 == 0 {
					var got api.Response
					if err := json.Unmarshal(post(t, h, "/v1/query", req).Body.Bytes(), &got); err != nil {
						t.Error(err)
						return
					}
					check(c, &got)
					return
				}
				got, aerr := api.CollectStream(decodeEvents(t, post(t, h, "/v1/query/stream", req).Body.Bytes()))
				if aerr != nil {
					t.Error(aerr)
					return
				}
				check(c, got)
			}(c)
		}
		close(start)
		wg.Wait()
	}

	// Quiet catalog: exactly one build per form, and one answer for all.
	req := baseRequest2(names, 50)
	primed, err := x.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalResults(t, primed.Results)
	firstHits(req, func(c int, got *api.Response) {
		if !got.Cached || marshalResults(t, got.Results) != want {
			t.Errorf("caller %d: cached %v, results differ %v", c, got.Cached, marshalResults(t, got.Results) != want)
		}
	})
	if n := x.formsBuilt.Load(); n != 2 {
		t.Fatalf("%d wire forms built by %d concurrent first hits of one entry, want 2", n, callers)
	}

	// Under catalog writes: generation j serves seed 2000+j. begun and
	// done bracket each Replace, so a request that saw done = lo before it
	// started and begun = hi after it ended ran on a generation in [lo, hi].
	var begun, done atomic.Int64
	gens := []*proxrank.Relation{awkwardRelation(t, 7)} // what the fixture registered
	const rounds = 6
	for j := 1; j <= rounds; j++ {
		gens = append(gens, awkwardRelation(t, int64(2000+j)))
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for j := 1; j <= rounds; j++ {
			begun.Store(int64(j))
			if err := cat.Replace(awkwardName, gens[j], 1); err != nil {
				t.Error(err)
				return
			}
			done.Store(int64(j))
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	type seen struct {
		lo, hi  int64
		results string
		q       []float64
	}
	var mu sync.Mutex
	var all []seen
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 2*rounds; round++ {
		req := baseRequest2(names, 50)
		req.Query = []float64{rng.Float64() - 0.5, rng.Float64() - 0.5}
		if _, err := x.Execute(ctx, req); err != nil { // the fresh entry
			t.Fatal(err)
		}
		lo := done.Load()
		firstHits(req, func(_ int, got *api.Response) {
			s := seen{lo: lo, hi: begun.Load(), results: marshalResults(t, got.Results), q: req.Query}
			mu.Lock()
			all = append(all, s)
			mu.Unlock()
		})
	}
	close(stop)
	writer.Wait()
	if built, runs := x.formsBuilt.Load(), x.Stats().EngineRuns; built > 2*runs {
		t.Fatalf("%d wire forms built for %d answers: some form was built twice", built, runs)
	}

	// Oracle: an uncached twin over each generation's data.
	fresh := map[string]string{}
	answer := func(j int64, q []float64) string {
		key := strconv.FormatInt(j, 10) + "|" + strconv.FormatFloat(q[0], 'g', -1, 64)
		if s, ok := fresh[key]; ok {
			return s
		}
		tcat, _ := replayCatalog(t, gens[j])
		req := baseRequest2(names, 50)
		req.Query = q
		resp, err := NewExecutor(tcat, Config{CacheSize: -1}).Execute(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fresh[key] = marshalResults(t, resp.Results)
		return fresh[key]
	}
	for i, s := range all {
		ok := false
		for j := s.lo; j <= s.hi && !ok; j++ {
			ok = s.results == answer(j, s.q)
		}
		if !ok {
			t.Fatalf("answer %d matches no generation live during its request (%d..%d)", i, s.lo, s.hi)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a benchmark
// through the handler measures the handler.
type discardWriter struct {
	h      http.Header
	n      int
	writes int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Flush()              {}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	w.writes++
	return len(b), nil
}

// TestReplayDoesNotEncode pins "a replay is a copy" as a number: a
// warmed hit through the handler allocates a fraction of the body it
// sends (re-encoding it allocated more than twice the body), in one
// write — and every stream hit is still clocked, one time-to-first-event
// observation per request.
func TestReplayDoesNotEncode(t *testing.T) {
	_, x, h, names := replayFixture(t, Config{Workers: 2, CacheSize: 16})
	req := baseRequest2(names, 100)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	streamHits := 0
	for _, path := range []string{"/v1/query", "/v1/query/stream"} {
		post(t, h, path, req) // the miss, or the hit that builds the form
		post(t, h, path, req)
		w := &discardWriter{h: http.Header{}}
		r := httptest.NewRequest(http.MethodPost, path, nil) // built once: the harness is not the subject
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.n, w.writes = 0, 0
				r.Body = io.NopCloser(bytes.NewReader(body))
				h.ServeHTTP(w, r)
			}
			if path == "/v1/query/stream" {
				streamHits += b.N
			}
		})
		if w.writes != 1 || w.n < 20<<10 {
			t.Fatalf("%s: a hit went out as %d bytes in %d writes, want one write of a K=100 body", path, w.n, w.writes)
		}
		if got, limit := res.AllocedBytesPerOp(), int64(w.n/4); got >= limit {
			t.Fatalf("%s: a hit allocates %d B/op for a %d B body, want under %d: something is encoding again", path, got, w.n, limit)
		}
		t.Logf("%s: %d B body, %d B/op, %d allocs/op, %d ns/op", path, w.n, res.AllocedBytesPerOp(), res.AllocsPerOp(), res.NsPerOp())
	}
	streamHits += 2 // the two stream posts before the benchmark: hits on the batch miss's entry

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	observed := metricValue(t, rec.Body.String(), "proxrank_query_ttfe_seconds_count", `mode="stream",algorithm="tbpa",cache="hit"`)
	if int(observed) != streamHits {
		t.Fatalf("ttfe{cache=hit,mode=stream} has %v observations for %d stream hits", observed, streamHits)
	}
	if st := x.Stats(); st.EngineRuns != 1 {
		t.Fatalf("EngineRuns = %d, want 1", st.EngineRuns)
	}
}
