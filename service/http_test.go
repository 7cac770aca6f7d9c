package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
)

func testServer(t testing.TB) (*httptest.Server, []string, *Executor) {
	t.Helper()
	cat, names := testSetup(t, 2, 60, 2)
	exec := NewExecutor(cat, Config{Workers: 4, CacheSize: 64, DefaultTimeout: 30 * time.Second})
	srv := httptest.NewServer(NewServer(cat, exec).Handler())
	t.Cleanup(srv.Close)
	return srv, names, exec
}

// postTopK sends one query; it returns errors rather than failing the
// test so it is safe to call from worker goroutines.
func postTopK(url string, req *api.Request) (*http.Response, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

// TestHTTPConcurrentTopK serves 48 concurrent queries (16 distinct, each
// asked three times) and checks every response; run under -race this is
// the acceptance test for the multi-tenant serving path.
func TestHTTPConcurrentTopK(t *testing.T) {
	srv, names, exec := testServer(t)

	const distinct, repeats = 16, 3
	var wg sync.WaitGroup
	errs := make(chan error, distinct*repeats)
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < distinct; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := &api.Request{
					Query:     []float64{float64(i) * 0.05, -0.1},
					Relations: names,
					K:         4,
				}
				resp, data, err := postTopK(srv.URL, req)
				if err != nil {
					errs <- fmt.Errorf("query %d: %v", i, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				var out api.Response
				if err := json.Unmarshal(data, &out); err != nil {
					errs <- fmt.Errorf("query %d: bad body: %v", i, err)
					return
				}
				if len(out.Results) != 4 {
					errs <- fmt.Errorf("query %d: %d results, want 4", i, len(out.Results))
					return
				}
				for j := 1; j < len(out.Results); j++ {
					if out.Results[j].Score > out.Results[j-1].Score+1e-9 {
						errs <- fmt.Errorf("query %d: results out of order", i)
						return
					}
				}
				if out.Cost.SumDepths <= 0 && !out.Cached {
					errs <- fmt.Errorf("query %d: missing cost stats: %+v", i, out.Cost)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := exec.Stats()
	if st.Queries != distinct*repeats {
		t.Fatalf("Queries = %d, want %d", st.Queries, distinct*repeats)
	}
	// Each distinct query runs the engine at most... exactly once? No:
	// identical queries racing may all miss the cache before the first
	// finishes; the single-flight group then serves them from the
	// leader's run (Coalesced), and a repeat arriving after the store is
	// a cache hit. How the repeats split between the two is pure timing;
	// the hard guarantee is the conservation law:
	if st.EngineRuns+st.CacheHits+st.Coalesced != st.Queries {
		t.Fatalf("EngineRuns(%d) + CacheHits(%d) + Coalesced(%d) != Queries(%d)",
			st.EngineRuns, st.CacheHits, st.Coalesced, st.Queries)
	}
	if st.EngineRuns < int64(distinct) {
		t.Fatalf("EngineRuns = %d, want at least one per distinct query (%d)", st.EngineRuns, distinct)
	}
	if st.Completed != st.EngineRuns {
		t.Fatalf("Completed = %d, EngineRuns = %d", st.Completed, st.EngineRuns)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after drain", st.InFlight)
	}
}

// TestHTTPEndpoints covers the read-only endpoints and the structured
// error body.
func TestHTTPEndpoints(t *testing.T) {
	srv, names, _ := testServer(t)

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, m
	}

	if code, m := get("/v1/healthz"); code != 200 || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, m)
	}
	if code, m := get("/v1/relations"); code != 200 {
		t.Fatalf("relations: %d %v", code, m)
	} else if rels := m["relations"].([]any); len(rels) != 2 {
		t.Fatalf("relations: %v", m)
	}
	// The counters have one surface, /metrics: /v1/stats is the router's 404.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: %d, want 404", resp.StatusCode)
	}

	// Unknown relation → 404 with a structured body.
	resp, data, err := postTopK(srv.URL, &api.Request{
		Query: []float64{0, 0}, Relations: []string{names[0], "ghost"}, K: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown relation: status %d: %s", resp.StatusCode, data)
	}
	var apiBody struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(data, &apiBody); err != nil || apiBody.Error == nil {
		t.Fatalf("unstructured error body: %s", data)
	}
	if apiBody.Error.Code != api.CodeNotFound {
		t.Fatalf("error code %q, want %q", apiBody.Error.Code, api.CodeNotFound)
	}

	// Malformed JSON → 400.
	r2, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", r2.StatusCode)
	}

	// Unknown field → structured 400 naming it: a client typo, or a field
	// that left the request model — "blockSize" (the engine's block width
	// is a constant), "dominancePeriod" (the engine has no such test),
	// "maxBuffered" (the server bounds every buffer to K), "boundPeriod"
	// (the bound is read on every pull), "overflow" (a stream reader is
	// never dropped, so there is no policy to pick).
	for _, field := range []string{"kay", "blockSize", "dominancePeriod", "maxBuffered", "boundPeriod", "overflow"} {
		r3, err := http.Post(srv.URL+"/v1/query", "application/json",
			strings.NewReader(`{"query":[0,0],"relations":["A","B"],"k":1,"`+field+`":2}`))
		if err != nil {
			t.Fatal(err)
		}
		unknown, _ := io.ReadAll(r3.Body)
		r3.Body.Close()
		apiBody.Error = nil
		if err := json.Unmarshal(unknown, &apiBody); err != nil || apiBody.Error == nil {
			t.Fatalf("unknown field %q: unstructured error body: %s", field, unknown)
		}
		if r3.StatusCode != http.StatusBadRequest || apiBody.Error.Code != api.CodeBadRequest ||
			!strings.Contains(apiBody.Error.Message, `unknown field "`+field+`"`) {
			t.Fatalf("unknown field %q: status %d: %s", field, r3.StatusCode, unknown)
		}
	}

	// Oversized body → 400 naming the limit, not a confusing JSON error.
	big := `{"query":[0,0],"relations":["A","B"],"k":1,"algorithm":"` +
		strings.Repeat("x", maxRequestBody) + `"}`
	r5, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	bodyBytes, _ := io.ReadAll(r5.Body)
	r5.Body.Close()
	if r5.StatusCode != http.StatusBadRequest || !strings.Contains(string(bodyBytes), "exceeds") {
		t.Fatalf("oversized body: status %d: %.200s", r5.StatusCode, bodyBytes)
	}

	// Wrong method → 405 from the router.
	r4, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d, want 405", r4.StatusCode)
	}

	// The removed legacy alias → the router's plain 404.
	r6, err := http.Post(srv.URL+"/v1/topk", "application/json",
		strings.NewReader(`{"query":[0,0],"relations":["A","B"],"k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	r6.Body.Close()
	if r6.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/topk: status %d, want 404 (the alias is gone)", r6.StatusCode)
	}
}

// TestHTTPExhaustedCrossProduct: K beyond the whole cross product
// exhausts every source, driving the final bound to −Inf — which is not
// JSON-representable. The response must still be valid JSON (threshold
// omitted), not a silent empty 200.
func TestHTTPExhaustedCrossProduct(t *testing.T) {
	cat := NewCatalog()
	for _, name := range []string{"tinyA", "tinyB"} {
		if err := cat.Register(name, testRelation(t, name, 77, 5, 2)); err != nil {
			t.Fatal(err)
		}
	}
	exec := NewExecutor(cat, Config{Workers: 1})
	srv := httptest.NewServer(NewServer(cat, exec).Handler())
	defer srv.Close()

	req := &api.Request{Query: []float64{0, 0}, Relations: []string{"tinyA", "tinyB"}, K: 100}
	for round := 0; round < 2; round++ { // second round exercises the cached copy
		resp, data, err := postTopK(srv.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(data) == 0 {
			t.Fatalf("round %d: status %d, %d body bytes", round, resp.StatusCode, len(data))
		}
		var out api.Response
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("round %d: invalid JSON: %v: %.200s", round, err, data)
		}
		if len(out.Results) != 25 {
			t.Fatalf("round %d: %d results, want the full 5×5 cross product", round, len(out.Results))
		}
		if out.Cost.Threshold != nil {
			t.Fatalf("round %d: non-finite threshold leaked: %v", round, *out.Cost.Threshold)
		}
	}
}

// TestHTTPTimeoutStatus: an unmeetable per-query deadline surfaces as
// 504 with the timeout code.
func TestHTTPTimeoutStatus(t *testing.T) {
	cat, names := testSetup(t, 3, 500, 3)
	exec := NewExecutor(cat, Config{Workers: 1, CacheSize: -1})
	exec.wrapSource = func(s proxrank.Source) proxrank.Source {
		return slowSource{Source: s, delay: 200 * time.Microsecond}
	}
	srv := httptest.NewServer(NewServer(cat, exec).Handler())
	defer srv.Close()

	probe := &api.Request{Query: []float64{0, 0, 0}, Relations: names, K: 100, Algorithm: "cbrr"}
	resp, data, err := postTopK(srv.URL, probe)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("probe failed: %d: %s", resp.StatusCode, data)
	}
	var probeOut api.Response
	if err := json.Unmarshal(data, &probeOut); err != nil {
		t.Fatal(err)
	}
	if probeOut.Cost.ElapsedMicros < 2000 {
		t.Skipf("full run took only %dµs; too fast to interrupt reliably", probeOut.Cost.ElapsedMicros)
	}

	probe.TimeoutMillis = 1
	resp, data, err = postTopK(srv.URL, probe)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	var body struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil || body.Error == nil || body.Error.Code != api.CodeTimeout {
		t.Fatalf("timeout body: %s", data)
	}
}

// TestHTTPBodiesCarryTheirLength: writeJSON has the whole body in hand
// before the first byte goes out, so an answer — a K = 100 one well past
// the server's buffer included — and a structured error both arrive with
// Content-Length, not chunked.
func TestHTTPBodiesCarryTheirLength(t *testing.T) {
	srv, names, _ := testServer(t)
	big, err := json.Marshal(&api.Request{Query: []float64{0.1, -0.2}, Relations: names, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body string
		status     int
		atLeast    int64
	}{
		{"k100 miss", string(big), http.StatusOK, 16 << 10},
		{"k100 hit", string(big), http.StatusOK, 16 << 10},
		{"bad request", "{nope", http.StatusBadRequest, 1},
	} {
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, data)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(data)) || resp.ContentLength < tc.atLeast {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				tc.name, resp.ContentLength, resp.TransferEncoding, len(data))
		}
		if !bytes.HasSuffix(data, []byte("}\n")) || !json.Valid(data) {
			t.Fatalf("%s: body is not one JSON object and a newline: %.80s", tc.name, data)
		}
	}
}
