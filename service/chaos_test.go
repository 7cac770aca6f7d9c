package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shardrpc"
)

// chaosRels builds the two tie-prone relations every chaos fixture
// serves.
func chaosRels(t testing.TB, size int) []*proxrank.Relation {
	t.Helper()
	return []*proxrank.Relation{
		testRelation(t, "A", 300, size, 2),
		testRelation(t, "B", 301, size, 2),
	}
}

// chaosCoord fronts the given shard servers with a coordinator node.
// Short per-peer timeouts keep dead-peer tests fast.
func chaosCoord(t testing.TB, servers []*Node, hedge shardrpc.HedgePolicy) *Node {
	t.Helper()
	n := openNode(t, NewCatalog(), NodeConfig{Peers: rpcAddrs(servers), Hedge: hedge})
	for _, p := range n.Fleet.Peers() {
		p.DialTimeout = 200 * time.Millisecond
		p.PullTimeout = 5 * time.Second
	}
	return n
}

// localTwin registers the same relations locally, for byte-identity
// comparisons against a distributed deployment.
func localTwin(t testing.TB, rels []*proxrank.Relation, shards int) *Executor {
	t.Helper()
	return NewExecutor(shardedCatalog(t, rels, shards), nodeTestConfig)
}

// survivorResults computes the exact answer a degraded query must give:
// the engine run over only the surviving shards of each relation,
// merged in canonical order. It reuses the executor's own source
// plumbing, so any divergence in a degraded response is the failover
// path's fault, not this twin's.
func survivorResults(t *testing.T, twin *Executor, req *api.Request, survives func(shard int) bool) *api.Response {
	t.Helper()
	_, query, opts, entries, aerr := twin.prepare(req)
	if aerr != nil {
		t.Fatal(aerr)
	}
	sources := make([]proxrank.Source, len(entries))
	for i, e := range entries {
		var inputs []relation.KeyedSource
		for s := 0; s < e.Shards(); s++ {
			if !survives(s) {
				continue
			}
			src, err := e.Sharded().ShardSource(s, opts.Access, query, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			ks, ok := src.(relation.KeyedSource)
			if !ok {
				t.Fatalf("shard source %T carries no merge keys", src)
			}
			inputs = append(inputs, ks)
		}
		merged, err := relation.NewMergedSource(e.Relation(), opts.Access, inputs)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = merged
	}
	res, err := proxrank.TopKFromSourcesContext(context.Background(), query, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]api.Combination, len(res.Combinations))
	for i, c := range res.Combinations {
		results[i] = wireCombination(c, entries)
	}
	return buildResponse(results, res.Threshold, res.DNF, res.Stats, nil)
}

func marshalResults(t testing.TB, results []api.Combination) string {
	t.Helper()
	buf, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestChaosDegradedByteIdentity: a degraded answer is not "roughly the
// surviving data" — it is exactly the top-K over the surviving shards,
// byte for byte, on both the batch and the streaming path. The
// Partial=forbid opt-out turns the same situation into a structured
// unavailable error on both paths.
func TestChaosDegradedByteIdentity(t *testing.T) {
	rels := chaosRels(t, 100)
	const shards = 4
	servers := make([]*Node, 2)
	for i := range servers {
		servers[i] = openShardServer(t, rels, shards, Ownership{Index: i, Count: 2}, nil)
	}
	coord := chaosCoord(t, servers, shardrpc.HedgePolicy{}).Executor
	servers[1].Close() // shards s with s%2 == 1 lose their only replica

	req := &api.Request{Query: []float64{0.2, -0.3}, Relations: []string{"A", "B"}, K: 5}
	resp, err := coord.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("response over a dead peer not marked degraded")
	}
	for _, m := range resp.ShardsMissing {
		if m.Shard%2 != 1 {
			t.Fatalf("shard %d of %q reported missing but its peer is alive", m.Shard, m.Relation)
		}
	}
	if len(resp.ShardsMissing) == 0 {
		t.Fatal("degraded response lists no missing shards")
	}
	if !resp.DNF && resp.ResultsCertified != len(resp.Results) {
		t.Fatalf("resultsCertified %d != %d results", resp.ResultsCertified, len(resp.Results))
	}

	twin := localTwin(t, rels, shards)
	want := survivorResults(t, twin, req, func(s int) bool { return s%2 == 0 })
	if w, g := marshalResults(t, want.Results), marshalResults(t, resp.Results); w != g {
		t.Fatalf("degraded results differ from the surviving-shard answer\nsurvivors: %s\ndegraded:  %s", w, g)
	}

	// Streaming path: the summary carries the degradation marks and the
	// event results match the batch answer.
	events, err := collectEvents(t, coord, req)
	if err != nil {
		t.Fatalf("degraded stream failed: %v", err)
	}
	var summary *api.Summary
	var streamed []api.Combination
	for _, ev := range events {
		if ev.Type == api.EventResult && ev.Result != nil {
			streamed = append(streamed, *ev.Result)
		}
		if ev.Type == api.EventSummary {
			summary = ev.Summary
		}
	}
	if summary == nil || !summary.Degraded || len(summary.ShardsMissing) == 0 {
		t.Fatalf("stream summary lacks degradation marks: %+v", summary)
	}
	if w, g := marshalResults(t, resp.Results), marshalResults(t, streamed); w != g {
		t.Fatalf("streamed degraded results differ from batch\nbatch:  %s\nstream: %s", w, g)
	}

	// The opt-out: forbidding partial results turns the degradation into
	// a clean structured failure on both paths.
	forbid := &api.Request{Query: []float64{0.2, -0.3}, Relations: []string{"A", "B"}, K: 5, Partial: api.PartialForbid}
	if _, err := coord.Execute(context.Background(), forbid); !isUnavailable(err) {
		t.Fatalf("batch partial=forbid: got %v, want %s", err, api.CodeUnavailable)
	}
	err = coord.ExecuteStream(context.Background(), forbid, func(api.ResultEvent) error { return nil })
	if !isUnavailable(err) {
		t.Fatalf("stream partial=forbid: got %v, want %s", err, api.CodeUnavailable)
	}
}

// TestChaosSetStreamFailover: with every shard on 2 of 3 peers, a
// coordinator's stream over one peer's set of shards loses its
// connection mid-stream — that peer resets its first next — and fails
// over to the replica, which re-opens the set at the stream's offset:
// the answer stays byte-identical to the single-node twin.
func TestChaosSetStreamFailover(t *testing.T) {
	rels := chaosRels(t, 600)
	const shards = 12
	reset := &faultinject.Rule{Verb: shardrpc.VerbNext, Action: faultinject.ActionReset, Nth: 1}
	servers := make([]*Node, 3)
	for i := range servers {
		var inj *faultinject.Injector
		if i == 0 {
			inj = faultinject.New(reset)
		}
		servers[i] = openShardServer(t, rels, shards, Ownership{Index: i, Count: 3, Replicas: 2}, inj)
	}
	coord := chaosCoord(t, servers, shardrpc.HedgePolicy{Disable: true})
	twin := localTwin(t, rels, shards)
	req := &api.Request{Query: []float64{0.1, -0.2}, Relations: []string{"A", "B"}, K: 40}
	want, err := twin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Executor.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("failover query failed: %v", err)
	}
	if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
		t.Fatalf("failed-over answer differs\nlocal:       %s\ncoordinator: %s", w, g)
	}
	if reset.Fired() != 1 {
		t.Fatalf("the reset fired %d times: no stream read past its first batch on peer 0", reset.Fired())
	}
	var retries int64
	for _, p := range coord.Fleet.Peers() {
		retries += p.Retries.Load()
	}
	if retries == 0 || got.Degraded {
		t.Fatalf("%d retries, degraded %v: the stream did not fail over cleanly", retries, got.Degraded)
	}
}

// TestChaosSetStreamMissing: with every shard on 2 of 3 peers and two
// adjacent peers down, the set both of them hold has no replica left:
// the degraded answer lists each of its shards in shardsMissing, and
// only those, and is exactly the top-K over the other shards.
func TestChaosSetStreamMissing(t *testing.T) {
	rels := chaosRels(t, 600)
	const shards = 12
	servers := make([]*Node, 3)
	for i := range servers {
		servers[i] = openShardServer(t, rels, shards, Ownership{Index: i, Count: 3, Replicas: 2}, nil)
	}
	coord := chaosCoord(t, servers, shardrpc.HedgePolicy{Disable: true}).Executor
	servers[0].Close()
	servers[1].Close() // shards s%3 == 0 are held by peers 0 and 1 only
	req := &api.Request{Query: []float64{0.1, -0.2}, Relations: []string{"A", "B"}, K: 40}
	resp, err := coord.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	var wantMissing []api.MissingShard
	for _, name := range req.Relations {
		for s := 0; s < shards; s += 3 {
			wantMissing = append(wantMissing, api.MissingShard{Relation: name, Shard: s})
		}
	}
	if !resp.Degraded || !reflect.DeepEqual(resp.ShardsMissing, wantMissing) {
		t.Fatalf("degraded %v, shardsMissing %v; want %v", resp.Degraded, resp.ShardsMissing, wantMissing)
	}
	twin := localTwin(t, rels, shards)
	want := survivorResults(t, twin, req, func(s int) bool { return s%3 != 0 })
	if w, g := marshalResults(t, want.Results), marshalResults(t, resp.Results); w != g {
		t.Fatalf("degraded results differ from the surviving-shard answer\nsurvivors: %s\ndegraded:  %s", w, g)
	}
}

func isUnavailable(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == api.CodeUnavailable
}

// TestChaosHedgeRescuesStalledReplica: a replica that stalls one pull
// for seconds must not stall the query — the hedge fires after 25ms,
// the healthy replica answers, and the result is byte-identical to a
// single node's.
func TestChaosHedgeRescuesStalledReplica(t *testing.T) {
	rels := chaosRels(t, 90)
	const shards = 2
	stall := &faultinject.Rule{Verb: "pull", Action: faultinject.ActionDelay, Delay: 2500 * time.Millisecond, Times: 1}
	inj := faultinject.New(stall)
	slow := openShardServer(t, rels, shards, Ownership{}, inj)
	fast := openShardServer(t, rels, shards, Ownership{}, nil)
	node := chaosCoord(t, []*Node{slow, fast}, shardrpc.HedgePolicy{After: 25 * time.Millisecond})
	coord, fleet := node.Executor, node.Fleet
	twin := localTwin(t, rels, shards)

	req := &api.Request{Query: []float64{0.4, 0.1}, Relations: []string{"A", "B"}, K: 4}
	start := time.Now()
	got, err := coord.Execute(context.Background(), req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}
	if got.Degraded {
		t.Fatal("hedged query marked degraded; both replicas are alive")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("query took %v under a 2.5s single-pull stall; the hedge did not rescue it", elapsed)
	}
	if stall.Fired() == 0 {
		t.Fatal("the stall rule never fired; the test exercised nothing")
	}
	var hedges int64
	for _, p := range fleet.Peers() {
		hedges += p.Hedges.Load()
	}
	if hedges == 0 {
		t.Fatal("no hedged request was issued")
	}
	want, err := twin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
		t.Fatalf("hedged answer differs from local\nlocal:  %s\nhedged: %s", w, g)
	}
}

// TestChaosCorruptFrameRetried: a corrupted response frame (intact
// length header, a byte flipped inside the row payload) is refused by
// the row frame's checksum — never decoded into rows — and retried
// transparently at the same offset: the query succeeds, undegraded and
// byte-identical.
func TestChaosCorruptFrameRetried(t *testing.T) {
	rels := chaosRels(t, 80)
	const shards = 2
	corrupt := &faultinject.Rule{Verb: "pull", Action: faultinject.ActionCorrupt, Times: 1}
	inj := faultinject.New(corrupt)
	server := openShardServer(t, rels, shards, Ownership{}, inj)
	node := chaosCoord(t, []*Node{server}, shardrpc.HedgePolicy{Disable: true})
	coord, fleet := node.Executor, node.Fleet
	twin := localTwin(t, rels, shards)
	peer := fleet.Peers()[0]
	var mu sync.Mutex
	var refused []error
	peer.ObservePull = func(_ time.Duration, err error) {
		if err != nil {
			mu.Lock()
			refused = append(refused, err)
			mu.Unlock()
		}
	}
	rows0 := peer.Rows.Load()

	req := &api.Request{Query: []float64{-0.2, 0.5}, Relations: []string{"A", "B"}, K: 4}
	got, err := coord.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("query through frame corruption failed: %v", err)
	}
	if corrupt.Fired() != 1 {
		t.Fatalf("corrupt rule fired %d times, want 1", corrupt.Fired())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(refused) != 1 || !strings.Contains(refused[0].Error(), "checksum") {
		t.Fatalf("the corrupted frame must be the one refused exchange, by checksum; refused: %v", refused)
	}
	if got := peer.Retries.Load(); got != 1 {
		t.Fatalf("%d retries after one refused frame, want 1", got)
	}
	// Rows are credited only from frames that verified, so the merges
	// cannot have consumed more than the peer is credited with.
	if fetched, consumed := peer.Rows.Load()-rows0, coord.Stats().RemoteRowsConsumed; consumed == 0 || fetched < consumed {
		t.Fatalf("rows fetched %d, consumed %d: a refused frame leaked rows", fetched, consumed)
	}
	if got.Degraded {
		t.Fatal("corruption-retried query marked degraded")
	}
	want, err := twin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
		t.Fatalf("answer through corruption differs from local\nlocal: %s\ngot:   %s", w, g)
	}
}

// metricValue extracts one sample value from a /metrics exposition: the
// first line of family name whose label block contains labelSub.
func metricValue(t testing.TB, body, name, labelSub string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if labelSub != "" && !strings.Contains(rest, labelSub) {
			continue
		}
		fields := strings.Fields(rest[strings.IndexByte(rest, ' ')+1:])
		if len(fields) == 0 {
			fields = strings.Fields(rest)
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("metric %s: bad sample line %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s (labels ~%q) not found in exposition", name, labelSub)
	return 0
}

// TestChaosBreakerOnMetrics: killing a peer trips its circuit breaker,
// and the whole episode is observable on /metrics — breaker state reads
// open for exactly that peer, degraded queries are counted, the hedge
// families are exposed, and the exposition stays well-formed.
func TestChaosBreakerOnMetrics(t *testing.T) {
	rels := chaosRels(t, 80)
	const shards = 4
	servers := make([]*Node, 2)
	for i := range servers {
		servers[i] = openShardServer(t, rels, shards, Ownership{Index: i, Count: 2}, nil)
	}
	node := chaosCoord(t, servers, shardrpc.HedgePolicy{})
	coord, fleet := node.Executor, node.Fleet
	// A long cooldown keeps the breaker visibly open for the scrape.
	fleet.SetBreakerConfig(shardrpc.BreakerConfig{Cooldown: time.Minute})
	ts := httptest.NewServer(node.Handler())
	t.Cleanup(ts.Close)

	servers[1].Close()
	dead := fleet.Peers()[1]
	deadline := time.Now().Add(10 * time.Second)
	for dead.Breaker().State() != shardrpc.BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker for %s never opened (state %s after repeated failures)", dead.Addr, dead.Breaker().State())
		}
		req := &api.Request{Query: []float64{0.1, 0.1}, Relations: []string{"A", "B"}, K: 3}
		if _, err := coord.Execute(context.Background(), req); err != nil {
			t.Fatalf("degraded query failed while tripping the breaker: %v", err)
		}
	}

	body := getBody(t, ts.URL+"/metrics")
	if err := obs.CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition is malformed under chaos: %v", err)
	}
	if v := metricValue(t, body, "proxrank_breaker_state", dead.Addr); v != 1 {
		t.Fatalf("proxrank_breaker_state{peer=%q} = %v, want 1 (open)", dead.Addr, v)
	}
	if v := metricValue(t, body, "proxrank_breaker_state", fleet.Peers()[0].Addr); v != 0 {
		t.Fatalf("live peer's breaker state = %v, want 0 (closed)", v)
	}
	if v := metricValue(t, body, "proxrank_degraded_queries_total", ""); v < 1 {
		t.Fatalf("proxrank_degraded_queries_total = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "proxrank_breaker_opens_total", dead.Addr); v < 1 {
		t.Fatalf("proxrank_breaker_opens_total{peer=%q} = %v, want >= 1", dead.Addr, v)
	}
	if !strings.Contains(body, "proxrank_hedges_total") || !strings.Contains(body, "proxrank_hedge_wins_total") {
		t.Fatal("hedge metric families missing from the exposition")
	}
}

// TestChaosAdmissionControl: with one worker and a one-deep admission
// queue, a third concurrent query is shed with a fast 503 and a
// Retry-After header instead of piling onto the queue.
func TestChaosAdmissionControl(t *testing.T) {
	cat, names := testSetup(t, 2, 40, 2)
	x := NewExecutor(cat, Config{Workers: 1, AdmissionQueue: 1, CacheSize: -1})
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }
	ts := httptest.NewServer(NewServer(cat, x).Handler())
	t.Cleanup(ts.Close)

	// Hold the only worker slot: a query whose engine is parked mid-pull
	// on the gate keeps its slot pinned until the gate opens.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := x.Execute(context.Background(), &api.Request{Query: []float64{0.1, 0.2}, Relations: names, K: 3}); err != nil {
			t.Errorf("slot-holding query failed: %v", err)
		}
	}()
	<-g.started

	// Second query: admitted to the queue (depth 1 = the watermark).
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := x.Execute(context.Background(), &api.Request{Query: []float64{0.3, 0.4}, Relations: names, K: 3}); err != nil {
			t.Errorf("queued query failed: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for x.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second query never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Third query: past the watermark — shed with 503 + Retry-After.
	body, _ := json.Marshal(api.Request{Query: []float64{0.5, 0.6}, Relations: names, K: 3})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded query: status %d, want %d", resp.StatusCode, http.StatusServiceUnavailable)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 overload response lacks a Retry-After header")
	}
	var errBody struct {
		Error *api.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.Error == nil || errBody.Error.Code != api.CodeOverloaded {
		t.Fatalf("overload error body: %+v, want code %s", errBody.Error, api.CodeOverloaded)
	}
	if x.Stats().Rejected < 1 {
		t.Fatal("rejected counter did not move")
	}

	close(g.open)
	wg.Wait()
}

// TestChaosReadyz: readiness flips to 503 when an unreplicated peer
// dies (its shards have no live replica) while liveness stays 200; a
// fully replicated deployment stays ready through the same loss.
func TestChaosReadyz(t *testing.T) {
	rels := chaosRels(t, 60)
	const shards = 4
	run := func(t *testing.T, own func(i int) Ownership, wantReadyAfterKill bool) {
		servers := make([]*Node, 2)
		for i := range servers {
			servers[i] = openShardServer(t, rels, shards, own(i), nil)
		}
		ts := httptest.NewServer(chaosCoord(t, servers, shardrpc.HedgePolicy{}).Handler())
		t.Cleanup(ts.Close)

		check := func(wantReady bool) {
			t.Helper()
			resp, err := http.Get(ts.URL + "/v1/readyz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			wantStatus := http.StatusOK
			if !wantReady {
				wantStatus = http.StatusServiceUnavailable
			}
			var body struct {
				Ready  bool   `json:"ready"`
				Reason string `json:"reason"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != wantStatus || body.Ready != wantReady {
				t.Fatalf("readyz: status %d ready=%v (%q), want status %d ready=%v",
					resp.StatusCode, body.Ready, body.Reason, wantStatus, wantReady)
			}
		}
		check(true)
		servers[1].Close()
		check(wantReadyAfterKill)
		// Liveness is unaffected either way.
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: status %d after peer death, want 200", resp.StatusCode)
		}
	}
	t.Run("unreplicated", func(t *testing.T) {
		run(t, func(i int) Ownership { return Ownership{Index: i, Count: 2} }, false)
	})
	t.Run("replicated", func(t *testing.T) {
		run(t, func(i int) Ownership { return Ownership{Index: i, Count: 2, Replicas: 2} }, true)
	})
}

// TestChaosInjectorHeals: a replica that resets every pull mid-response
// is carried by failover to its twin, and SetEnabled(false) heals every
// fault at once — the recovery half of a chaos run. Answers stay
// byte-identical and undegraded through both phases.
func TestChaosInjectorHeals(t *testing.T) {
	rels := chaosRels(t, 60)
	const shards = 2
	reset := &faultinject.Rule{Verb: "pull", Action: faultinject.ActionReset}
	inj := faultinject.New(reset)
	healthy := openShardServer(t, rels, shards, Ownership{}, nil)
	faulted := openShardServer(t, rels, shards, Ownership{}, inj)
	coord := chaosCoord(t, []*Node{faulted, healthy}, shardrpc.HedgePolicy{Disable: true}).Executor
	twin := localTwin(t, rels, shards)

	req := &api.Request{Query: []float64{0.0, 0.7}, Relations: []string{"A", "B"}, K: 3}
	want, err := twin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// With the first-choice replica resetting every pull, failover
	// carries the query; after healing, it must still answer cleanly.
	for _, phase := range []string{"faulted", "healed"} {
		if phase == "healed" {
			inj.SetEnabled(false)
		}
		got, err := coord.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: query failed: %v", phase, err)
		}
		if got.Degraded {
			t.Fatalf("%s: query degraded despite a live replica", phase)
		}
		if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
			t.Fatalf("%s: answer differs from local\nlocal: %s\ngot:   %s", phase, w, g)
		}
	}
	if reset.Fired() == 0 {
		t.Fatal("reset rule never fired")
	}
}
