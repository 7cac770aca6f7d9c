package service

import (
	"context"
	"runtime"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
)

// testSetup registers n relations and returns the catalog plus their
// names.
func testSetup(t testing.TB, n, size, dim int) (*Catalog, []string) {
	t.Helper()
	c := NewCatalog()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
		if err := c.Register(names[i], testRelation(t, names[i], int64(100+i), size, dim)); err != nil {
			t.Fatal(err)
		}
	}
	return c, names
}

func baseRequest(names []string) *api.Request {
	return &api.Request{
		Query:     []float64{0.1, -0.2},
		Relations: names,
		K:         3,
	}
}

// TestExecutorCacheSkipsEngine: a repeated identical query must be a
// cache hit that never reaches the engine, observable in the counters.
func TestExecutorCacheSkipsEngine(t *testing.T) {
	cat, names := testSetup(t, 2, 40, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})

	first, err := x.Execute(context.Background(), baseRequest(names))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution claims to be cached")
	}
	if len(first.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(first.Results))
	}

	second, err := x.Execute(context.Background(), baseRequest(names))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat execution was not served from cache")
	}
	if second.Cost.SumDepths != first.Cost.SumDepths {
		t.Fatalf("cached cost diverged: %d vs %d", second.Cost.SumDepths, first.Cost.SumDepths)
	}

	st := x.Stats()
	if st.EngineRuns != 1 {
		t.Fatalf("EngineRuns = %d, want 1 (cache must skip the engine)", st.EngineRuns)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("CacheHits/Misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	// The hit path must stamp Cached on a copy: `first` is the very
	// pointer stored in the cache, so it must still read Cached=false.
	if first.Cached {
		t.Fatal("cache hit mutated the shared cached response")
	}
}

// TestExecutorNoCacheBypass: NoCache requests neither read nor populate
// the cache.
func TestExecutorNoCacheBypass(t *testing.T) {
	cat, names := testSetup(t, 2, 30, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})
	req := baseRequest(names)
	req.NoCache = true
	for i := 0; i < 2; i++ {
		resp, err := x.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatalf("run %d: NoCache request served from cache", i)
		}
	}
	st := x.Stats()
	if st.EngineRuns != 2 || st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats after NoCache runs: %+v", st)
	}
}

// TestExecutorGenerationInvalidation: evicting and re-registering a
// relation under the same name must invalidate cached answers for it.
func TestExecutorGenerationInvalidation(t *testing.T) {
	cat, names := testSetup(t, 2, 30, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})
	if _, err := x.Execute(context.Background(), baseRequest(names)); err != nil {
		t.Fatal(err)
	}
	cat.Evict(names[0])
	// Different data under the same name.
	if err := cat.Register(names[0], testRelation(t, names[0], 999, 25, 2)); err != nil {
		t.Fatal(err)
	}
	resp, err := x.Execute(context.Background(), baseRequest(names))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("query against re-registered relation was served from the stale cache")
	}
	if x.Stats().EngineRuns != 2 {
		t.Fatalf("EngineRuns = %d, want 2", x.Stats().EngineRuns)
	}
}

// TestExecutorExpiredContext: a query arriving with an already-expired
// context must return promptly with a cancellation error, leak no
// goroutines, and never count as completed.
func TestExecutorExpiredContext(t *testing.T) {
	cat, names := testSetup(t, 3, 400, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: -1})

	before := runtime.NumGoroutine()
	for i := 0; i < 16; i++ {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		req := baseRequest(names)
		req.Query = []float64{float64(i), 0.5} // defeat any caching
		start := time.Now()
		_, err := x.Execute(ctx, req)
		elapsed := time.Since(start)
		cancel()
		if code := codeOf(err); code != api.CodeTimeout && code != api.CodeCanceled {
			t.Fatalf("iteration %d: err %v (code %q), want timeout/canceled", i, err, code)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("iteration %d: expired context took %v to return", i, elapsed)
		}
	}
	st := x.Stats()
	if st.Completed != 0 {
		t.Fatalf("Completed = %d, want 0", st.Completed)
	}
	if st.Canceled+st.Rejected != 16 {
		t.Fatalf("Canceled+Rejected = %d, want 16", st.Canceled+st.Rejected)
	}

	// A query that is already expired never starts an engine goroutine;
	// nothing may linger. Allow the runtime a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after canceled queries", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// slowSource delays every access so that a run is long enough for a
// short deadline to land mid-flight, whatever the hardware or the
// engine's hot path do.
type slowSource struct {
	proxrank.Source
	delay time.Duration
}

func (s slowSource) Next() (proxrank.Tuple, error) {
	time.Sleep(s.delay)
	return s.Source.Next()
}

// TestExecutorMidRunTimeout: a deadline that expires during engine
// execution aborts the run with a timeout error instead of running to
// completion.
func TestExecutorMidRunTimeout(t *testing.T) {
	cat, names := testSetup(t, 3, 500, 3)
	x := NewExecutor(cat, Config{Workers: 1, CacheSize: -1})
	x.wrapSource = func(s proxrank.Source) proxrank.Source {
		return slowSource{Source: s, delay: 200 * time.Microsecond}
	}
	req := &api.Request{
		Query:     []float64{0, 0, 0},
		Relations: names,
		K:         100,
		Algorithm: "cbrr", // deepest-reading algorithm: plenty of pulls to interrupt
	}
	// Measure the uncanceled cost once, then re-run with a deadline that
	// lands mid-flight. If the hardware answers even the full run faster
	// than the timer can fire, skip: the behavior is untestable here.
	full, err := x.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost.ElapsedMicros < 2000 {
		t.Skipf("full run took only %dµs; too fast to interrupt reliably", full.Cost.ElapsedMicros)
	}
	req.TimeoutMillis = 1
	req.Query = []float64{0.001, 0, 0} // different cacheable identity
	start := time.Now()
	_, err = x.Execute(context.Background(), req)
	if codeOf(err) != api.CodeTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timed-out query returned after %v", el)
	}
	if st := x.Stats(); st.Canceled == 0 {
		t.Fatalf("Canceled = 0 after a mid-run timeout; stats %+v", st)
	}
}

// TestExecutorTimeoutOverflowClamp: a TimeoutMillis large enough to
// overflow the Duration multiply must clamp to MaxTimeout instead of
// producing an already-expired deadline.
func TestExecutorTimeoutOverflowClamp(t *testing.T) {
	cat, names := testSetup(t, 2, 20, 2)
	x := NewExecutor(cat, Config{Workers: 1})
	req := baseRequest(names)
	req.TimeoutMillis = 1<<63 - 1
	resp, err := x.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("overflowing timeout expired the query: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
}

// TestExecutorValidation exercises the request validation table.
func TestExecutorValidation(t *testing.T) {
	cat, names := testSetup(t, 2, 10, 2)
	x := NewExecutor(cat, Config{Workers: 1})
	cases := []struct {
		name string
		mut  func(*api.Request)
		code api.ErrorCode
	}{
		{"no query", func(r *api.Request) { r.Query = nil }, api.CodeBadRequest},
		{"NaN query", func(r *api.Request) { r.Query = []float64{0.1, nan()} }, api.CodeBadRequest},
		{"one relation", func(r *api.Request) { r.Relations = names[:1] }, api.CodeBadRequest},
		{"unknown relation", func(r *api.Request) { r.Relations = []string{names[0], "ghost"} }, api.CodeNotFound},
		{"k zero", func(r *api.Request) { r.K = 0 }, api.CodeBadRequest},
		{"k over limit", func(r *api.Request) { r.K = DefaultMaxK + 1 }, api.CodeBadRequest},
		{"bad algorithm", func(r *api.Request) { r.Algorithm = "quantum" }, api.CodeBadRequest},
		{"bad access", func(r *api.Request) { r.Access = "random" }, api.CodeBadRequest},
		{"bad transform", func(r *api.Request) { r.Transform = "sqrt" }, api.CodeBadRequest},
		{"negative weight", func(r *api.Request) { r.Weights = &api.Weights{Ws: -1, Wq: 1, Wmu: 1} }, api.CodeBadRequest},
		{"infinite weight", func(r *api.Request) { r.Weights = &api.Weights{Ws: inf(), Wq: 1, Wmu: 1} }, api.CodeBadRequest},
		{"all-zero weights", func(r *api.Request) { r.Weights = &api.Weights{} }, api.CodeBadRequest},
		{"negative epsilon", func(r *api.Request) { r.Epsilon = -0.5 }, api.CodeBadRequest},
		{"infinite epsilon", func(r *api.Request) { r.Epsilon = inf() }, api.CodeBadRequest},
		{"negative timeout", func(r *api.Request) { r.TimeoutMillis = -5 }, api.CodeBadRequest},
		{"negative maxSumDepths", func(r *api.Request) { r.MaxSumDepths = -100 }, api.CodeBadRequest},
		{"negative maxCombinations", func(r *api.Request) { r.MaxCombinations = -1 }, api.CodeBadRequest},
		{"dim mismatch", func(r *api.Request) { r.Query = []float64{1, 2, 3} }, api.CodeBadRequest},
	}
	for _, tc := range cases {
		req := baseRequest(names)
		tc.mut(req)
		_, err := x.Execute(context.Background(), req)
		if codeOf(err) != tc.code {
			t.Errorf("%s: err %v, want code %s", tc.name, err, tc.code)
		}
	}
}

// TestExecutorScoreAccess serves a score-access query from the
// precomputed score order.
func TestExecutorScoreAccess(t *testing.T) {
	cat, names := testSetup(t, 2, 30, 2)
	x := NewExecutor(cat, Config{Workers: 1})
	req := baseRequest(names)
	req.Access = "score"
	resp, err := x.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Cost.SumDepths <= 0 {
		t.Fatalf("cost missing: %+v", resp.Cost)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func inf() float64 {
	var zero float64
	return 1 / zero
}

// TestCacheKeyNoCollision: relation names are caller-chosen and may
// contain the key's own delimiters, so without length-prefixing in the
// canonical encoding the lists [a, "1,b"] and ["a,1", b] would render
// the same segment and could serve each other's cached answers.
func TestCacheKeyNoCollision(t *testing.T) {
	entry := func(name string, gen uint64) *Entry {
		sharded, err := proxrank.NewShardedRelation(testRelation(t, name, int64(gen), 5, 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		return &Entry{sharded: sharded, gen: gen}
	}
	list1 := []*Entry{entry("a", 1), entry("1,b", 2)}
	list2 := []*Entry{entry("a,1", 1), entry("b", 2)}
	req1 := &api.Request{Query: []float64{0, 0}, Relations: []string{"a", "1,b"}, K: 1}
	req2 := &api.Request{Query: []float64{0, 0}, Relations: []string{"a,1", "b"}, K: 1}
	k1 := flightKey(req1.Canonical(), list1)
	k2 := flightKey(req2.Canonical(), list2)
	if k1 == k2 {
		t.Fatalf("distinct relation lists collided in the cache key: %q", k1)
	}
}

// TestCacheDropsReplacedGenerations: the first answer stored after a
// catalog replace drops the answers computed on the replaced entry —
// no lookup could match them again, and over a heap relation their
// vectors alias its index memory (a relfile answer's own their bytes) —
// and keeps the answers over relations that were not replaced.
func TestCacheDropsReplacedGenerations(t *testing.T) {
	cat, names := testSetup(t, 3, 40, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 8})
	run := func(rels ...string) {
		t.Helper()
		req := baseRequest(rels)
		if _, err := x.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	run(names[0], names[1])
	run(names[1], names[2])
	e, err := cat.Get(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Replace(names[0], e.Relation(), 1); err != nil {
		t.Fatal(err)
	}
	run(names[0], names[2])
	if n := x.cache.len(); n != 2 {
		t.Fatalf("cache holds %d answers after the replace, want 2: the one over %s and %s was outdated", n, names[0], names[1])
	}
	run(names[1], names[2]) // still cached: B and C were not replaced
	if hits := x.Stats().CacheHits; hits != 1 {
		t.Fatalf("%d cache hits, want 1", hits)
	}
}
