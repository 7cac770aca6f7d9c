package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
)

// outcomeCount reads how many requests the latency histogram has filed
// under one outcome label, summed over every other label.
func outcomeCount(t *testing.T, x *Executor, outcome string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	x.Registry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	total := 0.0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "proxrank_query_duration_seconds_count{") ||
			!strings.Contains(line, fmt.Sprintf("outcome=%q", outcome)) {
			continue
		}
		var v float64
		fields := strings.Fields(line)
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		total += v
	}
	return total
}

// waitIdle polls until no engine run holds a worker slot.
func waitIdle(t *testing.T, x *Executor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for x.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inFlight still %d", x.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBrokeredSinkFailureIsCancellation: a client that disconnects
// mid-delivery is a cancellation wherever the failing sink call sits —
// the first result or the summary; a cache-hit replay, a settled
// follower's replay, or a live drain. It must never be filed as a server
// fault.
func TestBrokeredSinkFailureIsCancellation(t *testing.T) {
	broken := errors.New("write: broken pipe")
	sinks := map[string]EventSink{
		"first result": func(api.ResultEvent) error { return broken },
		"summary": func(ev api.ResultEvent) error {
			if ev.Type == api.EventSummary {
				return broken
			}
			return nil
		},
	}
	paths := map[string]func(t *testing.T, x *Executor, req *api.Request, sink EventSink) error{
		"cache hit": func(t *testing.T, x *Executor, req *api.Request, sink EventSink) error {
			if _, err := x.Execute(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			return x.ExecuteStream(context.Background(), req, sink)
		},
		"settled follower": func(t *testing.T, x *Executor, req *api.Request, sink EventSink) error {
			g := newGate()
			x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }
			leaderDone := make(chan error, 1)
			go func() {
				_, err := x.Execute(context.Background(), req)
				leaderDone <- err
			}()
			<-g.started
			// A forbid follower never attaches mid-run: it waits for the
			// settled response and replays it.
			follower := *req
			follower.Partial = api.PartialForbid
			followerDone := make(chan error, 1)
			go func() { followerDone <- x.ExecuteStream(context.Background(), &follower, sink) }()
			time.Sleep(50 * time.Millisecond) // let the follower join the flight
			close(g.open)
			if err := <-leaderDone; err != nil {
				t.Fatalf("batch leader: %v", err)
			}
			return <-followerDone
		},
		"live run": func(t *testing.T, x *Executor, req *api.Request, sink EventSink) error {
			return x.ExecuteStream(context.Background(), req, sink)
		},
	}
	for pathName, run := range paths {
		for sinkName, sink := range sinks {
			t.Run(pathName+"/"+sinkName, func(t *testing.T) {
				cat, names := testSetup(t, 2, 24, 2)
				x := NewExecutor(cat, Config{Workers: 2, CacheSize: 16})
				err := run(t, x, baseRequest(names), sink)
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeCanceled {
					t.Fatalf("error = %#v, want an *api.Error with code %s", err, api.CodeCanceled)
				}
				waitIdle(t, x)
				if st := x.Stats(); st.Canceled != 1 || st.Failed != 0 {
					t.Errorf("canceled=%d failed=%d, want 1/0", st.Canceled, st.Failed)
				}
				if c, i := outcomeCount(t, x, "canceled"), outcomeCount(t, x, "internal"); c != 1 || i != 0 {
					t.Errorf("outcome labels: canceled=%v internal=%v, want 1/0", c, i)
				}
			})
		}
	}
}

// TestStreamFollowerAttachesToBatchLedRun: every run has a topic, so a
// stream follower attaches mid-run to a run a batch caller started — its
// first event arrives while the leader's run is provably still in flight
// — and what it collects is the batch response, byte for byte.
func TestStreamFollowerAttachesToBatchLedRun(t *testing.T) {
	cat, names := testSetup(t, 2, 12, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 16})
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }

	// K beyond the 144-combination cross product: the run must read every
	// tuple, so it cannot finish on fewer permits than tuples.
	req := baseRequest(names)
	req.K = 150
	const tuples = 24

	batchDone := make(chan struct{})
	var batchResp *api.Response
	var batchErr error
	go func() {
		defer close(batchDone)
		batchResp, batchErr = x.Execute(context.Background(), req)
	}()
	<-g.started // the batch leader's engine is mid-run

	first := make(chan struct{})
	var events []api.ResultEvent
	followerDone := make(chan error, 1)
	go func() {
		followerDone <- x.ExecuteStream(context.Background(), baseRequest2(names, req.K), func(ev api.ResultEvent) error {
			if len(events) == 0 {
				close(first)
			}
			events = append(events, ev)
			return nil
		})
	}()
	waitStat(t, func() int64 { return x.Stats().MidRunAttaches }, 1, "midRunAttaches")

	// Drip fewer permits than the run needs: enough to certify rank 1,
	// never enough to finish.
dripping:
	for i := 0; i < tuples-1; i++ {
		select {
		case <-first:
			break dripping
		case g.permits <- struct{}{}:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("follower saw no event while the batch-led run was in flight")
	}
	select {
	case <-batchDone:
		t.Fatal("batch leader finished on fewer permits than tuples")
	default:
	}
	close(g.open)

	if err := <-followerDone; err != nil {
		t.Fatalf("stream follower: %v", err)
	}
	<-batchDone
	if batchErr != nil {
		t.Fatalf("batch leader: %v", batchErr)
	}
	collected, aerr := api.CollectStream(events)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if got, want := marshalResults(t, collected.Results), marshalResults(t, batchResp.Results); got != want {
		t.Fatalf("attached stream differs from the batch leader's response:\n%s\n%s", got, want)
	}
	if batchResp.Cached {
		t.Error("the batch leader's own response is marked cached")
	}
	if sum := events[len(events)-1].Summary; sum == nil || !sum.Cached {
		t.Errorf("follower summary not marked cached: %+v", sum)
	}
	if st := x.Stats(); st.EngineRuns != 1 || st.MidRunAttaches != 1 || st.StreamsBrokered != 0 {
		t.Errorf("engineRuns=%d midRunAttaches=%d streamsBrokered=%d, want 1/1/0", st.EngineRuns, st.MidRunAttaches, st.StreamsBrokered)
	}
}

// TestBrokeredNoCacheStream: a noCache stream is a private brokered run,
// not a sink-paced one — a stalled sink no longer pins the worker slot
// past enumeration end — and it stays coupled to its one client, whose
// disconnect aborts the engine.
func TestBrokeredNoCacheStream(t *testing.T) {
	t.Run("stalled sink frees the slot", func(t *testing.T) {
		cat, names := testSetup(t, 2, 24, 2)
		x := NewExecutor(cat, Config{Workers: 1, CacheSize: 16})
		req := baseRequestNoCache(names)
		req.K = 8
		stalled := newStallSink()
		done := make(chan error, 1)
		go func() { done <- x.ExecuteStream(context.Background(), req, stalled.sink) }()
		<-stalled.entered // parked on its first event
		other := baseRequest(names)
		other.K = 2
		other.TimeoutMillis = 5000
		if _, err := x.Execute(context.Background(), other); err != nil {
			t.Fatalf("second query starved while a noCache client stalls: %v", err)
		}
		close(stalled.release)
		<-done
		if st := x.Stats(); st.StreamsBrokered != 1 || st.CacheEntries != 1 {
			t.Errorf("streamsBrokered=%d cacheEntries=%d, want 1/1 (only the second query is stored)", st.StreamsBrokered, st.CacheEntries)
		}
	})
	t.Run("disconnect aborts the run", func(t *testing.T) {
		cat, names := testSetup(t, 2, 24, 2)
		x := NewExecutor(cat, Config{Workers: 2, CacheSize: 16})
		g := newGate()
		x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- x.ExecuteStream(ctx, baseRequestNoCache(names), func(api.ResultEvent) error { return nil })
		}()
		<-g.started
		cancel()
		if err := <-done; asAPIError(err).Code != api.CodeCanceled {
			t.Fatalf("disconnected client error = %v, want %s", err, api.CodeCanceled)
		}
		close(g.open)
		waitIdle(t, x)
		if st := x.Stats(); st.Completed != 0 || st.Canceled != 1 || st.CacheEntries != 0 {
			t.Errorf("completed=%d canceled=%d cacheEntries=%d, want 0/1/0 (the private run dies with its client)",
				st.Completed, st.Canceled, st.CacheEntries)
		}
	})
}

// panicSource panics on its n-th pull, once: arm is consumed by the
// first source to get there, so a retried run completes.
type panicSource struct {
	proxrank.Source
	arm   *atomic.Bool
	pulls int
}

func (s *panicSource) Next() (proxrank.Tuple, error) {
	if s.pulls++; s.pulls == 2 && s.arm.CompareAndSwap(true, false) {
		panic("source exploded")
	}
	return s.Source.Next()
}

// TestEnginePanicIsContained: an engine panic costs one query, not the
// process and not the flight key — the run's own caller gets a
// structured internal error whether it asked for a batch or a stream, a
// coalesced follower retries and gets its own answer, the slot comes
// back, and the key is free for the next leader.
func TestEnginePanicIsContained(t *testing.T) {
	cat, names := testSetup(t, 2, 24, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 16})
	var arm atomic.Bool
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source {
		return gatedSource{Source: &panicSource{Source: s, arm: &arm}, g: g}
	}

	// Batch leader with a coalesced batch follower.
	arm.Store(true)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := x.Execute(context.Background(), baseRequest(names))
		leaderDone <- err
	}()
	<-g.started
	followerDone := make(chan struct{})
	var followerResp *api.Response
	var followerErr error
	go func() {
		defer close(followerDone)
		followerResp, followerErr = x.Execute(context.Background(), baseRequest(names))
	}()
	time.Sleep(50 * time.Millisecond) // let the follower join the flight
	close(g.open)
	if err := <-leaderDone; codeOf(err) != api.CodeInternal {
		t.Fatalf("batch leader error = %v, want %s", err, api.CodeInternal)
	}
	<-followerDone
	if followerErr != nil {
		t.Fatalf("follower inherited the leader's panic: %v", followerErr)
	}
	if len(followerResp.Results) != 3 || followerResp.Cached {
		t.Fatalf("follower response: %d results, cached=%v; want its own 3-result run", len(followerResp.Results), followerResp.Cached)
	}
	if st := x.Stats(); st.Failed != 1 || st.InFlight != 0 || st.EngineRuns != 2 {
		t.Fatalf("after a batch-led panic: failed=%d inFlight=%d engineRuns=%d, want 1/0/2", st.Failed, st.InFlight, st.EngineRuns)
	}

	// Stream leader; then the identical query leads a fresh run.
	req := baseRequest2(names, 5)
	arm.Store(true)
	events, err := collectEvents(t, x, req)
	if codeOf(err) != api.CodeInternal {
		t.Fatalf("stream leader error = %v (after %d events), want %s", err, len(events), api.CodeInternal)
	}
	if st := x.Stats(); st.Failed != 2 || st.InFlight != 0 {
		t.Fatalf("after a stream-led panic: failed=%d inFlight=%d, want 2/0", st.Failed, st.InFlight)
	}
	resp, err := x.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
	if resp.Cached || len(resp.Results) != 5 {
		t.Fatalf("query after the panic: cached=%v with %d results, want a fresh 5-result run", resp.Cached, len(resp.Results))
	}
	if st := x.Stats(); st.EngineRuns != 4 || st.Coalesced != 0 {
		t.Errorf("engineRuns=%d coalesced=%d, want 4/0 (the panicked key was free to lead again)", st.EngineRuns, st.Coalesced)
	}
}

// TestStatsSettledWhenExecuteReturns: the engine goroutine hands back
// its slot and settles its sources' accounting before it settles the
// flight, so the instant Execute returns InFlight is zero and the
// pruning counters already cover the query.
func TestStatsSettledWhenExecuteReturns(t *testing.T) {
	f := newDistFixture(t, 2, 160, 6, 2)
	total := int64(f.coordCat.TotalShards())
	for i := 0; i < 20; i++ {
		req := &api.Request{Query: []float64{-2.5 + float64(i)/4, -2.5}, Relations: f.names, K: 2}
		before := f.coord.Stats()
		if _, err := f.coord.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		st := f.coord.Stats()
		if st.InFlight != 0 {
			t.Fatalf("query %d: inFlight = %d the instant Execute returned", i, st.InFlight)
		}
		if got := (st.ShardsPruned - before.ShardsPruned) + (st.RemoteStreamsOpened - before.RemoteStreamsOpened); got != total {
			t.Fatalf("query %d: pruned+opened moved by %d, want all %d shards accounted for on return", i, got, total)
		}
	}
}

// TestNoGoroutineLeakAfterMixedTraffic: every run owns one goroutine and
// every exit path ends it — batch, stream, private, abandoned by a
// cancelled caller, or read to the end by a slow sink.
func TestNoGoroutineLeakAfterMixedTraffic(t *testing.T) {
	cat, names := testSetup(t, 2, 40, 2)
	x := NewExecutor(cat, Config{Workers: 4, CacheSize: 8})
	discard := func(api.ResultEvent) error { return nil }
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := baseRequest2(names, 8)
			req.Query = []float64{float64(i%13) / 10, -0.2} // some keys repeat: hits and coalesces
			switch i % 5 {
			case 0:
				_, _ = x.Execute(context.Background(), req)
			case 1:
				_ = x.ExecuteStream(context.Background(), req, discard)
			case 2:
				req.NoCache = true
				_ = x.ExecuteStream(context.Background(), req, discard)
			case 3:
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, _ = x.Execute(ctx, req)
			case 4:
				// A sink slower than the engine: it reads the whole run.
				_ = x.ExecuteStream(context.Background(), req, func(api.ResultEvent) error {
					time.Sleep(2 * time.Millisecond)
					return nil
				})
			}
		}(i)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 200 mixed requests", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := x.Stats(); st.InFlight != 0 || st.Queued != 0 || st.StreamSubscribers != 0 {
		t.Errorf("inFlight=%d queued=%d streamSubscribers=%d after the traffic drained, want 0/0/0", st.InFlight, st.Queued, st.StreamSubscribers)
	}
	x.flight.mu.Lock()
	defer x.flight.mu.Unlock()
	if n := len(x.flight.calls); n != 0 {
		t.Errorf("%d flight keys never retired", n)
	}
}
