package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/shardrpc"
)

// nodeTestConfig is the executor tuning every fixture node runs under:
// caching off, so identity checks compare engine answers.
var nodeTestConfig = Config{Workers: 2, CacheSize: -1}

// shardedCatalog registers rels partitioned into shards.
func shardedCatalog(t testing.TB, rels []*proxrank.Relation, shards int) *Catalog {
	t.Helper()
	cat := NewCatalog()
	for _, rel := range rels {
		if err := cat.RegisterSharded(rel.Name, rel, shards); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// openNode assembles one fixture node through Open — the only way a
// test stands one up — and closes it with the test. Killing a node
// mid-test is Close, which is idempotent.
func openNode(t testing.TB, cat *Catalog, cfg NodeConfig) *Node {
	t.Helper()
	cfg.Config = nodeTestConfig
	n, err := Open(context.Background(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// openShardServer serves rels from one shard-server node on a loopback
// port, behind a fault-injecting listener when inj is set.
func openShardServer(t testing.TB, rels []*proxrank.Relation, shards int, own Ownership, inj *faultinject.Injector) *Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		ln = inj.Listener(ln)
	}
	return openNode(t, shardedCatalog(t, rels, shards), NodeConfig{RPCListener: ln, Own: own})
}

// rpcAddrs lists the shard RPC addresses of servers, in order.
func rpcAddrs(servers []*Node) []string {
	addrs := make([]string, len(servers))
	for i, n := range servers {
		addrs[i] = n.RPCAddr
	}
	return addrs
}

// distFixture is one distributed deployment next to its single-node
// twin: the same relations, partitioned identically, served once by a
// fleet of shard servers behind a coordinator and once by a plain local
// executor. Byte-identity between the two is the system's core
// distributed invariant.
type distFixture struct {
	names []string
	rels  []*proxrank.Relation
	// single-node twin
	local *Executor
	// coordinator over the fleet, and its parts by the names the tests use
	node     *Node
	coord    *Executor
	coordCat *Catalog
	fleet    *shardrpc.Fleet
	servers  []*Node
}

// newDistFixture partitions nRels tie-prone relations into shards and
// serves them from nServers shard servers (server i owns shard s when
// s%n == i), plus a coordinator and a single-node twin.
func newDistFixture(t testing.TB, nRels, size, shards, nServers int) *distFixture {
	t.Helper()
	rels := make([]*proxrank.Relation, nRels)
	for i := range rels {
		rels[i] = testRelation(t, string(rune('A'+i)), int64(300+i), size, 2)
	}
	return newDistFixtureOver(t, rels, shards, nServers)
}

// newDistFixtureOver is newDistFixture over relations of the caller's.
func newDistFixtureOver(t testing.TB, rels []*proxrank.Relation, shards, nServers int) *distFixture {
	t.Helper()
	f := &distFixture{rels: rels}
	for _, rel := range rels {
		f.names = append(f.names, rel.Name)
	}
	for i := 0; i < nServers; i++ {
		f.servers = append(f.servers, openShardServer(t, f.rels, shards, Ownership{Index: i, Count: nServers}, nil))
	}
	f.local = NewExecutor(shardedCatalog(t, f.rels, shards), nodeTestConfig)
	f.coordCat = NewCatalog()
	f.node = openNode(t, f.coordCat, NodeConfig{Peers: rpcAddrs(f.servers)})
	f.coord, f.fleet = f.node.Executor, f.node.Fleet
	return f
}

// scrubEvents canonicalizes a streamed event sequence the same way.
func scrubEvents(t testing.TB, events []api.ResultEvent) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range events {
		if ev.Summary != nil {
			s := *ev.Summary
			s.Cost.ElapsedMicros = 0
			ev.Summary = &s
		}
		buf, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(buf)
		b.WriteByte('\n')
	}
	return b.String()
}

func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getBody(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestDistributedByteIdentity: coordinator + 3 shard servers answer
// byte-identically to a single node across algorithms × access kinds ×
// batch/stream consumption — scores, order, stats, and event sequence.
func TestDistributedByteIdentity(t *testing.T) {
	f := newDistFixture(t, 2, 120, 5, 3)
	queries := [][]float64{{0.2, -0.1}, {1.4, 1.1}, {-2.0, 0.4}}
	for _, algo := range []string{"cbrr", "cbpa", "tbrr", "tbpa"} {
		for _, access := range []string{api.AccessDistance, api.AccessScore} {
			for qi, q := range queries {
				req := &api.Request{
					Query:     q,
					Relations: f.names,
					K:         4,
					Algorithm: algo,
					Access:    access,
				}
				name := fmt.Sprintf("%s/%s/q%d", algo, access, qi)
				want, err := f.local.Execute(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: local: %v", name, err)
				}
				got, err := f.coord.Execute(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: coordinator: %v", name, err)
				}
				if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
					t.Fatalf("%s: batch responses differ\nlocal:       %s\ncoordinator: %s", name, w, g)
				}
				wantEv, err := collectEvents(t, f.local, req)
				if err != nil {
					t.Fatalf("%s: local stream: %v", name, err)
				}
				gotEv, err := collectEvents(t, f.coord, req)
				if err != nil {
					t.Fatalf("%s: coordinator stream: %v", name, err)
				}
				if w, g := scrubEvents(t, wantEv), scrubEvents(t, gotEv); w != g {
					t.Fatalf("%s: event streams differ\nlocal:\n%s\ncoordinator:\n%s", name, w, g)
				}
			}
		}
	}
}

// TestDistributedPruning: a query tucked into a corner of uniform data
// under grid partitioning — the benchmark's edge class: dim 4, 12 shards a
// relation on 3 servers, K = 2 — opens the box holding the corner and at
// most one neighbour per relation, answers as the single-node twin does,
// and says so in the stats.
func TestDistributedPruning(t *testing.T) {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Dim, cfg.BaseTuples, cfg.Seed = 4, 2400, 5
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := newDistFixtureOver(t, rels, 12, 3)
	corner := 0.44 * cfg.SideLength()
	req := &api.Request{
		Query:     []float64{corner, -corner, -corner, corner},
		Relations: f.names,
		K:         2,
	}
	want, err := f.local.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.coord.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
		t.Fatalf("pruned answer differs from local\nlocal:       %s\ncoordinator: %s", w, g)
	}
	st := f.coord.Stats()
	if limit := int64(2 * len(rels)); st.RemoteStreamsOpened > limit {
		t.Fatalf("corner K=2 query opened %d remote streams over %d relations, want at most %d", st.RemoteStreamsOpened, len(rels), limit)
	}
	if st.ShardsPruned+st.RemoteStreamsOpened != int64(f.coordCat.TotalShards()) {
		// Every remote shard source ends the query either opened or pruned.
		t.Fatalf("pruned %d + opened %d does not cover the %d shards",
			st.ShardsPruned, st.RemoteStreamsOpened, f.coordCat.TotalShards())
	}
}

// TestDistributedOneStreamPerPeer: a coordinator over 3 peers × 12 grid
// shards a relation opens at most one stream per (peer, relation) per
// query — each peer counts the pulls it is sent — answers byte-identically
// to the single-node twin, and settles every shard as read or pruned.
func TestDistributedOneStreamPerPeer(t *testing.T) {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Dim, cfg.BaseTuples, cfg.Seed = 4, 2400, 5
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const shards, peers = 12, 3
	var names []string
	for _, rel := range rels {
		names = append(names, rel.Name)
	}
	servers := make([]*Node, peers)
	pulls := make([]*faultinject.Rule, peers)
	for i := range servers {
		// A zero delay changes nothing; the rule only counts what it matches.
		pulls[i] = &faultinject.Rule{Verb: shardrpc.VerbPull, Action: faultinject.ActionDelay}
		servers[i] = openShardServer(t, rels, shards, Ownership{Index: i, Count: peers}, faultinject.New(pulls[i]))
	}
	local := NewExecutor(shardedCatalog(t, rels, shards), nodeTestConfig)
	node := openNode(t, NewCatalog(), NodeConfig{Peers: rpcAddrs(servers)})
	corner := 0.44 * cfg.SideLength()
	for _, req := range []*api.Request{
		{Query: []float64{0, 0, 0, 0}, Relations: names, K: 20},
		{Query: []float64{corner, -corner, -corner, corner}, Relations: names, K: 2},
		{Query: []float64{0.1, 0.2, -0.1, 0}, Relations: names, K: 10, Access: api.AccessScore},
		{Query: []float64{-corner, 0, corner, 0}, Relations: names, K: 5, Algorithm: "cbrr"},
	} {
		before := node.Executor.Stats()
		fired := make([]int64, peers)
		for i, r := range pulls {
			fired[i] = r.Fired()
		}
		want, err := local.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := node.Executor.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
			t.Fatalf("%v: coordinator differs from local\nlocal:       %s\ncoordinator: %s", req.Query, w, g)
		}
		for i, r := range pulls {
			if n := r.Fired() - fired[i]; n > int64(len(rels)) {
				t.Fatalf("%v: peer %d was sent %d pulls for %d relations", req.Query, i, n, len(rels))
			}
		}
		after := node.Executor.Stats()
		read, pruned := after.RemoteStreamsOpened-before.RemoteStreamsOpened, after.ShardsPruned-before.ShardsPruned
		if read+pruned != int64(shards*len(rels)) || read == 0 {
			t.Fatalf("%v: %d shards read + %d pruned, want %d in all", req.Query, read, pruned, shards*len(rels))
		}
	}
}

// TestDistributedOverFetchBounded pins what a query pays on the wire to
// what its merges consume. Every opened stream ramps from a 16-row first
// pull, so rows fetched stay within 4 × rows consumed + 16 per opened
// stream (a fixed 512-row pull would ship each 400-row shard whole), and
// a shard the bounds prune appears on neither side: it costs zero rows.
// Both sides are read in process — the executor's snapshot and the
// peers' row counters — and /metrics must serve the same totals. The
// counts themselves are pinned: they are settled where the session ends,
// and moving that must not move them.
func TestDistributedOverFetchBounded(t *testing.T) {
	f := newDistFixture(t, 2, 2400, 6, 2)
	ts := httptest.NewServer(f.node.Handler())
	t.Cleanup(ts.Close)

	// read returns the coordinator's snapshot and the rows its peers sent.
	read := func() (StatsSnapshot, int64) {
		var rows int64
		for _, p := range f.fleet.Peers() {
			rows += p.Rows.Load()
		}
		return f.coord.Stats(), rows
	}
	for _, tc := range []struct {
		name                     string
		req                      *api.Request
		opened, pruned, consumed int64
	}{
		{"center", &api.Request{Query: []float64{0, 0}, Relations: f.names, K: 20}, 8, 4, 285},
		{"edge", &api.Request{Query: []float64{-2.5, -2.5}, Relations: f.names, K: 2}, 2, 10, 28},
	} {
		before, fetchedBefore := read()
		want, err := f.local.Execute(context.Background(), tc.req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.coord.Execute(context.Background(), tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
			t.Fatalf("%s: coordinator differs from local\nlocal:       %s\ncoordinator: %s", tc.name, w, g)
		}
		after, fetchedAfter := read()
		fetched := fetchedAfter - fetchedBefore
		consumed := after.RemoteRowsConsumed - before.RemoteRowsConsumed
		opened := after.RemoteStreamsOpened - before.RemoteStreamsOpened
		pruned := after.ShardsPruned - before.ShardsPruned
		t.Logf("%s: %d streams opened, %d pruned; %d rows fetched for %d consumed", tc.name, opened, pruned, fetched, consumed)
		if opened == 0 || consumed < opened || fetched < consumed {
			t.Fatalf("%s: opened %d streams, consumed %d rows, fetched %d: every opened stream yields a row and rows are fetched before they are consumed",
				tc.name, opened, consumed, fetched)
		}
		if fetched > 4*consumed+16*opened {
			t.Fatalf("%s: fetched %d rows for %d consumed over %d opened streams, over the 4×consumed + 16×opened bound",
				tc.name, fetched, consumed, opened)
		}
		if opened != tc.opened || pruned != tc.pruned || consumed != tc.consumed {
			t.Fatalf("%s: opened %d, pruned %d, consumed %d; recorded %d, %d, %d",
				tc.name, opened, pruned, consumed, tc.opened, tc.pruned, tc.consumed)
		}
	}

	body := getBody(t, ts.URL+"/metrics")
	total, fetched := read()
	for name, want := range map[string]int64{
		"proxrank_remote_rows_consumed_total":  total.RemoteRowsConsumed,
		"proxrank_remote_streams_opened_total": total.RemoteStreamsOpened,
		"proxrank_shards_pruned_total":         total.ShardsPruned,
	} {
		if got := metricValue(t, body, name, ""); int64(got) != want {
			t.Fatalf("%s = %v, Stats says %d", name, got, want)
		}
	}
	var perPeer float64
	for _, p := range f.fleet.Peers() {
		perPeer += metricValue(t, body, "proxrank_rpc_rows_total", p.Addr)
	}
	if int64(perPeer) != fetched {
		t.Fatalf("proxrank_rpc_rows_total sums to %v, the peers' row counters to %d", perPeer, fetched)
	}
}

// TestDistributedConcurrentQueries runs the executor's remote path from
// many goroutines at once — shared peers, pooled connections, the
// latency rings and row counters behind them — and holds every answer to
// the single-node twin. It is the test the race detector is pointed at
// (CI runs it with -race -count=10).
func TestDistributedConcurrentQueries(t *testing.T) {
	f := newDistFixture(t, 2, 600, 6, 2)
	queries := [][]float64{{0, 0}, {-2.5, -2.5}, {1, -1}, {0.3, 2}}
	want := make([]string, len(queries))
	for i, q := range queries {
		resp, err := f.local.Execute(context.Background(), &api.Request{Query: q, Relations: f.names, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = CanonicalResponse(resp)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (g + round) % len(queries)
				resp, err := f.coord.Execute(context.Background(), &api.Request{Query: queries[i], Relations: f.names, K: 10})
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				if got := CanonicalResponse(resp); got != want[i] {
					t.Errorf("goroutine %d round %d: answer differs from the single-node twin", g, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := f.coord.Stats(); st.RemoteRowsConsumed == 0 || st.RemoteStreamsOpened == 0 {
		t.Fatalf("no remote traffic recorded: %+v", st)
	}
}

// TestDistributedMixedLocalRemote: a coordinator holding one relation
// locally and one remotely merges both worlds byte-identically. It is
// the test of the shadowing rule: the catalog already holds A when the
// node is opened over a fleet serving A and B, so only B arrives remote.
func TestDistributedMixedLocalRemote(t *testing.T) {
	f := newDistFixture(t, 2, 100, 4, 2)
	mixedCat := shardedCatalog(t, f.rels[:1], 4)
	node := openNode(t, mixedCat, NodeConfig{Peers: rpcAddrs(f.servers)})
	if !reflect.DeepEqual(node.Shadowed, []string{"A"}) {
		t.Fatalf("shadowed %v, want [A]: the local copy must win", node.Shadowed)
	}
	for name, wantRemote := range map[string]bool{"A": false, "B": true} {
		if e, err := mixedCat.Get(name); err != nil || e.IsRemote() != wantRemote {
			t.Fatalf("relation %s: remote=%v err=%v, want remote=%v", name, e.IsRemote(), err, wantRemote)
		}
	}
	mixed := node.Executor
	req := &api.Request{Query: []float64{0.3, 0.3}, Relations: f.names, K: 5}
	want, err := f.local.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mixed.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
		t.Fatalf("mixed local+remote differs\nlocal: %s\nmixed: %s", w, g)
	}
}

// TestDistributedPeerDeath: with no replicas, losing a peer surfaces as
// a clean structured unavailable error when the request forbids partial
// results — never a hang or a corrupt partial answer — and as a marked
// degraded response under the default partial policy.
func TestDistributedPeerDeath(t *testing.T) {
	f := newDistFixture(t, 2, 80, 4, 2)
	for _, p := range f.fleet.Peers() {
		p.DialTimeout = 200 * time.Millisecond
		p.PullTimeout = 500 * time.Millisecond
	}
	f.servers[1].Close() // peer 1 dies for good
	req := &api.Request{Query: []float64{0, 0}, Relations: f.names, K: 3, Partial: api.PartialForbid}
	_, err := f.coord.Execute(context.Background(), req)
	if err == nil {
		t.Fatal("partial=forbid query over a dead, unreplicated peer succeeded")
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("got %v, want *api.Error with code %q", err, api.CodeUnavailable)
	}

	// The default policy degrades instead: the query completes over the
	// surviving shards and says so.
	resp, err := f.coord.Execute(context.Background(), &api.Request{Query: []float64{0, 0}, Relations: f.names, K: 3})
	if err != nil {
		t.Fatalf("partial=allow query failed: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("response over a dead peer not marked degraded")
	}
	if len(resp.ShardsMissing) == 0 {
		t.Fatal("degraded response lists no missing shards")
	}
	if resp.Cached {
		t.Fatal("degraded response claims to be cached")
	}
}

// TestDistributedReplicaFailover: when every shard is replicated on a
// second peer, losing one mid-deployment is invisible to queries.
func TestDistributedReplicaFailover(t *testing.T) {
	rels := chaosRels(t, 100)
	var servers []*Node
	for i := 0; i < 2; i++ {
		// Ownership{}: both servers own everything.
		servers = append(servers, openShardServer(t, rels, 4, Ownership{}, nil))
	}
	node := openNode(t, NewCatalog(), NodeConfig{Peers: rpcAddrs(servers)})
	coord := node.Executor
	for _, p := range node.Fleet.Peers() {
		p.DialTimeout = 200 * time.Millisecond
		p.PullTimeout = 500 * time.Millisecond
	}
	local := localTwin(t, rels, 4)

	servers[0].Close() // first-choice owner dies; replica carries on
	req := &api.Request{Query: []float64{0.1, 0.1}, Relations: []string{"A", "B"}, K: 3}
	want, err := local.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("failover query failed: %v", err)
	}
	if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
		t.Fatalf("failover answer differs\nlocal:       %s\ncoordinator: %s", w, g)
	}
}

// TestCoordinatorEndpoints: /v1/relations reports per-peer ownership,
// /v1/healthz reports per-peer health and degrades (status only, still
// 200) when a peer is down, /metrics carries the remote counters.
func TestCoordinatorEndpoints(t *testing.T) {
	f := newDistFixture(t, 2, 80, 4, 2)
	for _, p := range f.fleet.Peers() {
		p.DialTimeout = 200 * time.Millisecond
		p.PullTimeout = 500 * time.Millisecond
	}
	ts := httptest.NewServer(f.node.Handler())
	t.Cleanup(ts.Close)

	var rels struct {
		Relations []RelationInfo `json:"relations"`
	}
	getJSON(t, ts.URL+"/v1/relations", &rels)
	if len(rels.Relations) != 2 || !rels.Relations[0].Remote || !rels.Relations[1].Remote {
		t.Fatalf("relations: %+v, want two remote entries", rels.Relations)
	}
	ownedTotal := 0
	for _, shards := range rels.Relations[0].Owners {
		ownedTotal += len(shards)
	}
	if len(rels.Relations[0].Owners) != 2 || ownedTotal != rels.Relations[0].Shards {
		t.Fatalf("ownership map incomplete: %+v", rels.Relations[0].Owners)
	}

	var health struct {
		Status string       `json:"status"`
		Peers  []PeerHealth `json:"peers"`
	}
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if health.Status != "ok" || len(health.Peers) != 2 {
		t.Fatalf("healthy fleet: %+v", health)
	}

	// Run one query so the metrics carry remote counters.
	req := &api.Request{Query: []float64{0, 0}, Relations: f.names, K: 3}
	if _, err := f.coord.Execute(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	body := getBody(t, ts.URL+"/metrics")
	var pulls float64
	for _, p := range f.fleet.Peers() {
		pulls += metricValue(t, body, "proxrank_rpc_pulls_total", p.Addr)
	}
	if opened := metricValue(t, body, "proxrank_remote_streams_opened_total", ""); pulls == 0 || opened == 0 {
		t.Fatalf("remote counters empty after a query: pulls=%v opened=%v", pulls, opened)
	}

	// Kill a peer: healthz degrades but stays a 200 liveness signal.
	f.servers[1].Close()
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if health.Status != "degraded" {
		t.Fatalf("one peer down: status %q, want degraded", health.Status)
	}
	downs := 0
	for _, p := range health.Peers {
		if p.Status == "down" {
			downs++
			if p.Coverage != "bound-dependent" {
				t.Fatalf("unreplicated down peer coverage %q, want bound-dependent", p.Coverage)
			}
		}
	}
	if downs != 1 {
		t.Fatalf("%d peers down, want 1: %+v", downs, health.Peers)
	}

	// The pruning counter is exposed on /metrics under its canonical name.
	body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, "proxrank_shards_pruned_total") ||
		!strings.Contains(body, "proxrank_rpc_pull_duration_seconds") {
		t.Fatal("metrics exposition is missing the fleet families")
	}
}

// TestRemoteScoresBitExact double-checks the JSON wire keeps float bits:
// the remote response's scores must be bit-identical, not just close.
func TestRemoteScoresBitExact(t *testing.T) {
	f := newDistFixture(t, 2, 90, 3, 2)
	req := &api.Request{Query: []float64{0.7, -0.3}, Relations: f.names, K: 5}
	want, err := f.local.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.coord.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != len(got.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		if math.Float64bits(want.Results[i].Score) != math.Float64bits(got.Results[i].Score) {
			t.Fatalf("result %d: score bits differ: %x vs %x", i,
				math.Float64bits(want.Results[i].Score), math.Float64bits(got.Results[i].Score))
		}
	}
}
