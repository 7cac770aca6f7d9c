package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// pinJitter pins the backoff jitter for a test, restoring it after.
func pinJitter(t *testing.T, f func(time.Duration) time.Duration) {
	t.Helper()
	old := backoffJitter
	backoffJitter = f
	t.Cleanup(func() { backoffJitter = old })
}

// fullWindow makes every backoff sleep its whole window (deterministic
// and long enough to cancel into).
func fullWindow(w time.Duration) time.Duration { return w }

// deadAddr returns a loopback address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestBackoffFullJitter(t *testing.T) {
	for n := 1; n <= 6; n++ {
		window := backoffBase << (n - 1)
		if window > backoffCap {
			window = backoffCap
		}
		for i := 0; i < 200; i++ {
			d := backoff(n)
			if d < 0 || d > window {
				t.Fatalf("backoff(%d) = %v outside [0, %v]", n, d, window)
			}
		}
	}
	// The rand source is injectable, so timing-sensitive tests can pin it.
	pinJitter(t, func(w time.Duration) time.Duration { return w / 2 })
	if got := backoff(1); got != backoffBase/2 {
		t.Fatalf("pinned backoff(1) = %v, want %v", got, backoffBase/2)
	}
	if got := backoff(10); got != backoffCap/2 {
		t.Fatalf("pinned backoff(10) = %v, want %v", got, backoffCap/2)
	}
}

// TestCallCancellationMidRetry: cancelling the context while Call is in
// a backoff sleep must return promptly with the context's own error —
// not an *api.Error — and leave no checked-out connection behind.
func TestCallCancellationMidRetry(t *testing.T) {
	pinJitter(t, fullWindow)
	p := NewPeer(deadAddr(t))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Land inside a backoff sleep (first window is 25ms, after a
		// near-instant refused dial).
		time.Sleep(35 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.Call(ctx, &Request{Verb: VerbPing})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		t.Fatalf("cancellation surfaced as *api.Error %v, want the raw ctx.Err()", apiErr)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("cancelled Call took %v, want a prompt return", elapsed)
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connections left in the pool after cancellation", idle)
	}
}

// deadRemote builds a RemoteRelation whose single shard is owned only
// by dead peers.
func deadRemote(t *testing.T, owners ...*Peer) (*relation.Relation, *RemoteRelation) {
	t.Helper()
	rel := testRelation(t, "pts", 11, 20, 2)
	sharded, err := relation.Partition(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr := &RemoteRelation{
		Name:     "pts",
		MaxScore: rel.MaxScore,
		Dim:      rel.Dim(),
		Tuples:   rel.Len(),
		Shards:   1,
		Owners:   map[int][]*Peer{0: owners},
		Bounds:   map[int]relation.ShardBounds{0: sharded.ShardBounds(0)},
	}
	return rel, rr
}

// TestNextKeyedCancellationMidRetry mirrors the Call test for the
// streaming path: a cancel during fetch's backoff sleep returns the
// context error promptly, with no connection checked out.
func TestNextKeyedCancellationMidRetry(t *testing.T) {
	pinJitter(t, fullWindow)
	rel, rr := deadRemote(t, NewPeer(deadAddr(t)))
	ctx, cancel := context.WithCancel(context.Background())
	src, err := OpenRemoteShard(ctx, rel, rr, 0, api.AccessScore, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(35 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, _, err = src.NextKeyed()
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		t.Fatalf("cancellation surfaced as *api.Error %v, want the raw ctx.Err()", apiErr)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("cancelled NextKeyed took %v, want a prompt return", elapsed)
	}
	if src.conn != nil {
		t.Fatal("cancelled source left a connection checked out")
	}
}

// TestBreakerFailFast: once a dead peer's breaker opens, further calls
// stop dialing it at all.
func TestBreakerFailFast(t *testing.T) {
	pinJitter(t, func(time.Duration) time.Duration { return 0 })
	p := NewPeer(deadAddr(t))
	p.SetBreakerConfig(BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour})
	if _, err := p.Call(context.Background(), &Request{Verb: VerbPing}); err == nil {
		t.Fatal("call to a dead peer succeeded")
	}
	if got := p.Breaker().State(); got != BreakerOpen {
		t.Fatalf("breaker state=%v after a failed call, want open", got)
	}
	redials := p.Reconnects.Load()
	_, err := p.Call(context.Background(), &Request{Verb: VerbPing})
	if err == nil {
		t.Fatal("open-circuit call succeeded")
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("err = %v, want CodeUnavailable", err)
	}
	if got := p.Reconnects.Load(); got != redials {
		t.Fatalf("open-circuit call dialed the peer (%d redials, had %d)", got, redials)
	}
}

// TestPartialDegradesDeadShard: in partial mode a shard whose every
// replica is down ends its stream early and reports Missing, instead of
// failing the query; strict mode keeps the CodeUnavailable error.
func TestPartialDegradesDeadShard(t *testing.T) {
	pinJitter(t, func(time.Duration) time.Duration { return 0 })
	dead := NewPeer(deadAddr(t))
	rel, rr := deadRemote(t, dead)

	strict, err := OpenRemoteShard(context.Background(), rel, rr, 0, api.AccessScore, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = strict.NextKeyed()
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("strict source err = %v, want CodeUnavailable", err)
	}
	if strict.Missing() {
		t.Fatal("strict source reported Missing")
	}

	soft, err := OpenRemoteShard(context.Background(), rel, rr, 0, api.AccessScore, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	soft.SetPartial(true)
	_, _, _, err = soft.NextKeyed()
	if !errors.Is(err, relation.ErrExhausted) {
		t.Fatalf("partial source err = %v, want ErrExhausted", err)
	}
	if !soft.Missing() {
		t.Fatal("partial source did not report Missing")
	}
	if !soft.Exhausted() {
		t.Fatal("degraded source should read as exhausted to the merge")
	}
}

// TestFailoverBeforeBackoff: a fetch whose first owner is dead fails over
// to the live replica at once — no backoff sleep — and streams exactly the
// rows a local shard stream gives; a lone dead owner still backs off
// before each of its maxAttempts − 1 retries.
func TestFailoverBeforeBackoff(t *testing.T) {
	var sleeps atomic.Int32
	pinJitter(t, func(time.Duration) time.Duration { sleeps.Add(1); return 0 })
	rel := testRelation(t, "pts", 11, 20, 2)
	sharded, err := relation.Partition(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := NewPeer(startServer(t, &testBackend{
		name: "live",
		rels: map[string]*relation.Sharded{"pts": sharded},
		owns: func(int) bool { return true },
	}))
	t.Cleanup(live.Close)
	_, rr := deadRemote(t, NewPeer(deadAddr(t)), live)

	src, err := OpenRemoteShard(context.Background(), rel, rr, 0, api.AccessScore, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drainKeyed(t, src, 1<<20)
	if n := sleeps.Load(); n != 0 {
		t.Fatalf("failover to an untried replica slept %d times, want 0", n)
	}
	local, err := sharded.ShardSource(0, relation.ScoreAccess, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := drainKeyed(t, local.(relation.KeyedSource), 1<<20); !rowsEqual(got, want) {
		t.Fatalf("failed-over stream has %d rows differing from the local stream's %d", len(got), len(want))
	}

	_, lone := deadRemote(t, NewPeer(deadAddr(t)))
	src, err = OpenRemoteShard(context.Background(), rel, lone, 0, api.AccessScore, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := src.NextKeyed(); err == nil {
		t.Fatal("a lone dead owner served a row")
	}
	if n := sleeps.Load(); n != maxAttempts-1 {
		t.Fatalf("lone dead owner slept %d times, want %d", n, maxAttempts-1)
	}
}

// startFaultedServer serves backend through a fault-injecting listener.
func startFaultedServer(t *testing.T, backend Backend, inj *faultinject.Injector) (addr string) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend)
	if err := srv.Serve(inj.Listener(raw)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return raw.Addr().String()
}

// TestHedgedPullRescuesStalledReplica: with the primary replica stalled
// by an injected delay, the hedge fires on the other replica, the
// stream completes well under the stall, and the rows are byte-for-byte
// the rows a healthy direct stream yields.
func TestHedgedPullRescuesStalledReplica(t *testing.T) {
	rel := testRelation(t, "pts", 7, 90, 2)
	sharded, err := relation.Partition(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	backend := func(name string) *testBackend {
		return &testBackend{
			name: name,
			rels: map[string]*relation.Sharded{"pts": sharded},
			owns: func(int) bool { return true },
		}
	}
	const stall = 600 * time.Millisecond
	inj, err := faultinject.Parse(fmt.Sprintf("verb=pull;action=delay;delay=%s|verb=next;action=delay;delay=%s", stall, stall))
	if err != nil {
		t.Fatal(err)
	}
	slowAddr := startFaultedServer(t, backend("slow"), inj)
	fastAddr := startServer(t, backend("fast"))

	fleet := NewFleet([]string{slowAddr, fastAddr})
	fleet.Hedge = HedgePolicy{After: 30 * time.Millisecond}
	t.Cleanup(fleet.Close)
	remotes, err := fleet.Discover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rr := remotes["pts"]

	src, err := OpenRemoteShard(context.Background(), rel, rr, 0, api.AccessScore, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var got []WireTuple
	for {
		tp, key, ord, err := src.NextKeyed()
		if errors.Is(err, relation.ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, WireTuple{Key: key, Ord: ord, ID: tp.ID, Score: tp.Score, Vec: tp.Vec})
	}
	elapsed := time.Since(start)
	if elapsed >= stall {
		t.Fatalf("stream took %v — the hedge did not rescue it from the %v stall", elapsed, stall)
	}
	hedges := fleet.Peers()[0].Hedges.Load() + fleet.Peers()[1].Hedges.Load()
	if hedges == 0 {
		t.Fatal("no hedged requests were issued")
	}

	// Byte-identity: same rows as the local shard stream.
	local, err := sharded.ShardSource(0, relation.ScoreAccess, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	keyed := local.(relation.KeyedSource)
	for i := 0; ; i++ {
		tp, key, ord, err := keyed.NextKeyed()
		if errors.Is(err, relation.ErrExhausted) {
			if i != len(got) {
				t.Fatalf("remote stream has %d rows, local has %d", len(got), i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(got) {
			t.Fatalf("remote stream ended at row %d, local continues", i)
		}
		w := got[i]
		if w.Key != key || w.Ord != ord || w.ID != tp.ID || w.Score != tp.Score {
			t.Fatalf("row %d differs: remote {%v %d %s %v}, local {%v %d %s %v}", i, w.Key, w.Ord, w.ID, w.Score, key, ord, tp.ID, tp.Score)
		}
	}
}

// TestHedgeTriggerScalesWithBatch: on a peer whose history is mostly the
// 16-row first pulls of ramped streams, a p90 over raw durations sits
// below what any full-size pull costs — every one of them would hedge a
// healthy replica. Costing history per row requested and scaling by the
// batch being sent keeps the trigger above a healthy exchange of either
// size, inside the [1ms, pullTimeout/2] clamp.
func TestHedgeTriggerScalesWithBatch(t *testing.T) {
	// A healthy peer: 1ms of round trip and stream open, 2µs per row.
	cost := func(batch int) time.Duration { return time.Millisecond + time.Duration(batch)*2*time.Microsecond }
	p := NewPeer("unused")
	var raw []time.Duration
	for i := 0; i < latWindow; i++ {
		batch := rampStart
		if i%10 == 9 {
			batch = DefaultBatch
		}
		p.observeLatency(cost(batch), batch)
		raw = append(raw, cost(batch))
	}
	slices.Sort(raw)
	if rawP90 := raw[len(raw)*9/10]; rawP90 >= cost(DefaultBatch) {
		t.Fatalf("fixture does not show the problem: raw p90 %v is not below a full pull's %v", rawP90, cost(DefaultBatch))
	}
	for _, batch := range []int{rampStart, 4 * rampStart, DefaultBatch} {
		if got := p.hedgeDelay(batch); got < cost(batch) {
			t.Errorf("trigger for a %d-row exchange is %v, under the %v a healthy one takes", batch, got, cost(batch))
		}
	}
	if small, full := p.hedgeDelay(rampStart), p.hedgeDelay(DefaultBatch); full <= small {
		t.Errorf("trigger does not grow with the batch: %v for %d rows, %v for %d", small, rampStart, full, DefaultBatch)
	}

	fast := NewPeer("unused")
	for i := 0; i < latWindow; i++ {
		fast.observeLatency(20*time.Microsecond, rampStart)
	}
	if got := fast.hedgeDelay(rampStart); got != time.Millisecond {
		t.Errorf("trigger on a fast peer = %v, want the 1ms floor", got)
	}
	slow := NewPeer("unused")
	slow.PullTimeout = 2 * time.Second
	for i := 0; i < latWindow; i++ {
		slow.observeLatency(900*time.Millisecond, rampStart)
	}
	if got := slow.hedgeDelay(DefaultBatch); got != time.Second {
		t.Errorf("trigger on a slow peer = %v, want pullTimeout/2", got)
	}
}

// TestHedgeRampedStream drives the adaptive trigger end to end on a
// two-replica fleet with a WAN-like 2ms on every exchange. A deep ramped
// stream — sizes from 16 to 512 rows through one peer's history — issues
// no hedge while both replicas are healthy; once the primary stalls, the
// hedge still fires, wins, and the rows stay bit-for-bit the local
// stream's.
func TestHedgeRampedStream(t *testing.T) {
	rel := testRelation(t, "pts", 7, 2600, 2)
	sharded, err := relation.Partition(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sharded.ShardSource(0, relation.ScoreAccess, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	want := drainKeyed(t, local.(relation.KeyedSource), 1<<20)

	const rtt, stall = 2 * time.Millisecond, 600 * time.Millisecond
	delayAll := func(d time.Duration) *faultinject.Injector {
		return faultinject.New(
			&faultinject.Rule{Verb: VerbPull, Action: faultinject.ActionDelay, Delay: d},
			&faultinject.Rule{Verb: VerbNext, Action: faultinject.ActionDelay, Delay: d})
	}
	stalled := delayAll(stall)
	stalled.SetEnabled(false)
	addrs := make([]string, 2)
	for i := range addrs {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := delayAll(rtt).Listener(raw)
		if i == 0 {
			ln = stalled.Listener(ln) // the primary: fleet order is owner order
		}
		srv := NewServer(&testBackend{
			name: fmt.Sprintf("replica%d", i),
			rels: map[string]*relation.Sharded{"pts": sharded},
			owns: func(int) bool { return true },
		})
		if err := srv.Serve(ln); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = raw.Addr().String()
	}
	fleet := NewFleet(addrs) // zero HedgePolicy: the adaptive trigger
	t.Cleanup(fleet.Close)
	remotes, err := fleet.Discover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hedges := func() (issued, won int64) {
		for _, p := range fleet.Peers() {
			issued += p.Hedges.Load()
			won += p.HedgeWins.Load()
		}
		return
	}
	stream := func() *RemoteSource {
		src, err := OpenRemoteShard(context.Background(), rel, remotes["pts"], 0, api.AccessScore, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	if got := drainKeyed(t, stream(), 1<<20); !rowsEqual(got, want) {
		t.Fatalf("healthy stream differs from local (%d vs %d rows)", len(got), len(want))
	}
	if issued, _ := hedges(); issued != 0 {
		t.Fatalf("a %d-row ramped stream over two healthy replicas issued %d hedges", len(want), issued)
	}

	stalled.SetEnabled(true)
	start := time.Now()
	got := drainKeyed(t, stream(), 1<<20)
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("stream took %v — the hedge did not rescue it from the %v stall", elapsed, stall)
	}
	if !rowsEqual(got, want) {
		t.Fatalf("hedged stream differs from local (%d vs %d rows)", len(got), len(want))
	}
	if issued, won := hedges(); issued == 0 || won == 0 {
		t.Fatalf("primary stalled: %d hedges issued, %d won", issued, won)
	}
}

// TestSetStreamFailover: a stream over a set of shards that both peers
// hold loses its connection mid-stream — its first next is reset — and
// fails over to the other replica, which re-opens the set at the
// stream's offset. The rows are the local merge of the set, byte for
// byte, and the stream ends having read every shard of the set.
func TestSetStreamFailover(t *testing.T) {
	rel := testRelation(t, "pts", 7, 300, 2)
	sharded, err := relation.Partition(rel, 6)
	if err != nil {
		t.Fatal(err)
	}
	backend := func(name string) *testBackend {
		return &testBackend{
			name: name,
			rels: map[string]*relation.Sharded{"pts": sharded},
			owns: func(int) bool { return true },
		}
	}
	inj, err := faultinject.Parse("verb=next;action=reset;nth=1")
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet([]string{startFaultedServer(t, backend("flaky"), inj), startServer(t, backend("steady"))})
	fleet.Hedge = HedgePolicy{Disable: true}
	t.Cleanup(fleet.Close)
	remotes, err := fleet.Discover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rr := remotes["pts"]
	if want := [][]int{{0, 1, 2, 3, 4, 5}}; !reflect.DeepEqual(rr.Groups, want) {
		t.Fatalf("groups %v, want %v: both peers own every shard", rr.Groups, want)
	}
	q := []float64{0.5, 0.5}
	src, err := OpenRemoteShards(context.Background(), rel, rr, rr.Groups[0], api.AccessDistance, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drainKeyed(t, src, 1<<20)
	local, err := sharded.OpenShardSet(rr.Groups[0], relation.DistanceAccess, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := drainKeyed(t, local, 1<<20); !rowsEqual(got, want) {
		t.Fatalf("failed-over set stream has %d rows differing from the local merge's %d", len(got), len(want))
	}
	if n := inj.Fired(); n != 1 {
		t.Fatalf("reset fired %d times, want 1", n)
	}
	steady := fleet.Peers()[1]
	if steady.Pulls.Load() == 0 || src.peerRetriesTotal() == 0 {
		t.Fatalf("the stream did not fail over: %d exchanges with the replica, %d retries", steady.Pulls.Load(), src.peerRetriesTotal())
	}
	if read := src.ShardsRead(); read != len(rr.Groups[0]) {
		t.Fatalf("drained set stream read %d of %d shards", read, len(rr.Groups[0]))
	}
}
