package service

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
)

// stallSink is an EventSink that parks on its first event until released
// — the deliberately slow client of the ROADMAP's decoupling item.
type stallSink struct {
	entered chan struct{} // closed when the first event arrives
	release chan struct{} // close to let the sink return
	events  []api.ResultEvent
	once    bool
}

func newStallSink() *stallSink {
	return &stallSink{entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *stallSink) sink(ev api.ResultEvent) error {
	if !s.once {
		s.once = true
		close(s.entered)
		<-s.release
	}
	s.events = append(s.events, ev)
	return nil
}

// waitStat polls a stats field until it reaches want or the deadline
// passes.
func waitStat(t *testing.T, read func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if read() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s never reached %d (now %d)", what, want, read())
}

// TestStalledSubscriberDoesNotBlockEngine is the delivery regression
// test: a deliberately stalled stream sink must not delay a concurrently
// coalesced batch Execute or a second stream follower — the engine runs
// to completion at engine speed and both followers observe the full
// result set while the slow client is still parked on its first event.
// The run publishes K + 1 = 101 events the stalled client has not read,
// and once released that client still receives the whole answer,
// byte-identical to the batch path.
func TestStalledSubscriberDoesNotBlockEngine(t *testing.T) {
	cat, names := testSetup(t, 2, 24, 2)
	x := NewExecutor(cat, Config{
		Workers:   1, // one slot: decoupling must free it for everyone else
		CacheSize: 16,
	})
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }

	req := baseRequest(names)
	req.K = 100

	stalled := newStallSink()
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- x.ExecuteStream(context.Background(), req, stalled.sink) }()
	<-g.started // the leader owns the flight key and the engine is mid-run

	// Second stream follower: attaches to the live topic mid-run.
	followerDone := make(chan error, 1)
	var followerEvents []api.ResultEvent
	go func() {
		followerDone <- x.ExecuteStream(context.Background(), baseRequest2(names, req.K), func(ev api.ResultEvent) error {
			followerEvents = append(followerEvents, ev)
			return nil
		})
	}()
	waitStat(t, func() int64 { return x.Stats().MidRunAttaches }, 1, "midRunAttaches")

	// Coalesced batch query of the same key. Its coalesced counter only
	// moves on completion, so give it a moment to join the flight.
	batchDone := make(chan struct{})
	var batchResp *api.Response
	var batchErr error
	go func() {
		defer close(batchDone)
		batchResp, batchErr = x.Execute(context.Background(), baseRequest2(names, req.K))
	}()
	time.Sleep(50 * time.Millisecond)

	// Drip source permits until the stalled client has its first event —
	// pinning the leader inside its parked sink deterministically — then
	// let the engine run free. The stalled sink stays parked: if either
	// follower's completion depended on it, the waits below would hang
	// (and the test would fail by timeout, not flake).
	go func() {
		for {
			select {
			case <-stalled.entered:
				close(g.open)
				return
			case g.permits <- struct{}{}:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	select {
	case err := <-followerDone:
		if err != nil {
			t.Fatalf("stream follower: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream follower still waiting on the stalled leader sink")
	}
	select {
	case <-batchDone:
		if batchErr != nil {
			t.Fatalf("batch follower: %v", batchErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch follower still waiting on the stalled leader sink")
	}
	select {
	case err := <-leaderDone:
		t.Fatalf("stalled leader returned while parked: %v", err)
	default: // still parked, as intended
	}

	// Byte-identity across delivery paths: the follower's collected
	// stream equals the coalesced batch response, which equals the
	// library's answer over the same relations — a reference that shares
	// no service code.
	collected, aerr := api.CollectStream(followerEvents)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(collected.Results, batchResp.Results) {
		t.Fatalf("follower stream differs from coalesced batch:\n%v\n%v", collected.Results, batchResp.Results)
	}
	if sum := followerEvents[len(followerEvents)-1].Summary; sum == nil || !sum.Cached {
		t.Errorf("follower summary not marked cached: %+v", sum)
	}
	ref := referenceResults(t, cat, baseRequest2(names, req.K))
	if !reflect.DeepEqual(batchResp.Results, ref) {
		t.Fatalf("brokered results differ from the library's own answer:\n%v\n%v", batchResp.Results, ref)
	}

	// Release the slow client: nobody dropped it, so it reads the whole
	// answer, every byte the batch caller got.
	close(stalled.release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("stalled leader: %v", err)
	}
	leader, aerr := api.CollectStream(stalled.events)
	if aerr != nil {
		t.Fatal(aerr)
	}
	got, err := json.Marshal(leader.Results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(batchResp.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(leader.Results) != req.K || !bytes.Equal(got, want) {
		t.Fatalf("released leader collected %d results, differing from the batch answer:\n%s\n%s", len(leader.Results), got, want)
	}

	st := x.Stats()
	if st.EngineRuns != 1 {
		t.Errorf("engineRuns = %d, want 1 (one coalesced run)", st.EngineRuns)
	}
	if st.StreamsBrokered != 1 {
		t.Errorf("streamsBrokered = %d, want 1", st.StreamsBrokered)
	}
}

// referenceResults answers req with the library alone — proxrank.TopKInputs
// over the catalog's relations, no executor, flight, or broker — in the
// wire shape the service reports.
func referenceResults(t *testing.T, cat *Catalog, req *api.Request) []api.Combination {
	t.Helper()
	norm := *req
	query, opts, err := proxrank.OptionsFromRequest(&norm, api.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := cat.Resolve(norm.Relations)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]proxrank.Input, len(entries))
	for i, e := range entries {
		inputs[i] = e.Sharded()
	}
	res, err := proxrank.TopKInputs(query, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]api.Combination, len(res.Combinations))
	for i, c := range res.Combinations {
		tuples := make([]api.Tuple, len(c.Tuples))
		for j, tp := range c.Tuples {
			tuples[j] = api.Tuple{Relation: norm.Relations[j], ID: tp.ID, Score: tp.Score, Vec: []float64(tp.Vec), Attrs: tp.Attrs}
		}
		out[i] = api.Combination{Score: c.Score, Tuples: tuples}
	}
	return out
}

func baseRequest2(names []string, k int) *api.Request {
	r := baseRequest(names)
	r.K = k
	return r
}

// TestBrokeredSlotReleasedAtEnumerationEnd: with one worker and a
// stalled stream client, a *different* query must still get the slot —
// the engine side releases it when enumeration finishes, not when the
// client finally drains.
func TestBrokeredSlotReleasedAtEnumerationEnd(t *testing.T) {
	cat, names := testSetup(t, 2, 24, 2)
	x := NewExecutor(cat, Config{Workers: 1, CacheSize: 16})

	req := baseRequest(names)
	req.K = 8
	stalled := newStallSink()
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- x.ExecuteStream(context.Background(), req, stalled.sink) }()
	<-stalled.entered // parked on its first event, engine free-running

	// A different query (distinct K → distinct key) needs the only slot.
	other := baseRequest(names)
	other.K = 2
	other.TimeoutMillis = 5000
	resp, err := x.Execute(context.Background(), other)
	if err != nil {
		t.Fatalf("second query starved while a client stalls: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("second query returned %d results", len(resp.Results))
	}

	close(stalled.release)
	<-leaderDone
}

// TestBrokeredCacheDisabledStillDecouples: disabling the result cache
// must not silently disable the broker — streams become private
// brokered runs (no flight, nothing stored) that still release their
// worker slot at enumeration end.
func TestBrokeredCacheDisabledStillDecouples(t *testing.T) {
	cat, names := testSetup(t, 2, 24, 2)
	x := NewExecutor(cat, Config{Workers: 1, CacheSize: -1})
	req := baseRequest(names)
	req.K = 8
	stalled := newStallSink()
	done := make(chan error, 1)
	go func() { done <- x.ExecuteStream(context.Background(), req, stalled.sink) }()
	<-stalled.entered // parked on its first event

	other := baseRequest(names)
	other.K = 2
	other.TimeoutMillis = 5000
	if _, err := x.Execute(context.Background(), other); err != nil {
		t.Fatalf("second query starved while a client stalls (cache disabled): %v", err)
	}
	if st := x.Stats(); st.StreamsBrokered != 1 || st.CacheEntries != 0 {
		t.Errorf("streamsBrokered=%d cacheEntries=%d, want 1/0", st.StreamsBrokered, st.CacheEntries)
	}
	close(stalled.release)
	<-done
}

// TestBrokeredLeaderDisconnectDoesNotAbortRun: once a run is
// coalescable, the leader's client going away must not abort it —
// whether that leader asked for a stream or a batch, the engine
// completes under its own deadline and the response lands in the cache
// for everyone after.
func TestBrokeredLeaderDisconnectDoesNotAbortRun(t *testing.T) {
	leaders := map[string]func(*Executor, context.Context, *api.Request) error{
		"stream": func(x *Executor, ctx context.Context, req *api.Request) error {
			return x.ExecuteStream(ctx, req, func(api.ResultEvent) error { return nil })
		},
		"batch": func(x *Executor, ctx context.Context, req *api.Request) error {
			_, err := x.Execute(ctx, req)
			return err
		},
	}
	for name, lead := range leaders {
		t.Run(name, func(t *testing.T) {
			cat, names := testSetup(t, 2, 24, 2)
			x := NewExecutor(cat, Config{Workers: 2, CacheSize: 16})
			g := newGate()
			x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- lead(x, ctx, baseRequest(names)) }()
			<-g.started
			cancel() // client disconnects mid-run
			if err := <-done; asAPIError(err).Code != api.CodeCanceled {
				t.Fatalf("disconnected leader error = %v, want %s", err, api.CodeCanceled)
			}
			close(g.open)

			waitStat(t, func() int64 { return int64(x.Stats().CacheEntries) }, 1, "cacheEntries")
			x.wrapSource = nil
			resp, err := x.Execute(context.Background(), baseRequest(names))
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Cached {
				t.Error("abandoned run's response not served from cache")
			}
			if st := x.Stats(); st.EngineRuns != 1 {
				t.Errorf("engineRuns = %d, want 1 (the abandoned run completed; no rerun)", st.EngineRuns)
			}
		})
	}
}

// TestBrokeredFollowerRetriesAfterLeaderFailure: a mid-run-attached
// follower that saw no events must not inherit the leader's failure
// (which may be specific to the leader's own deadline) — like a
// done-channel follower, it retries and becomes the next leader.
func TestBrokeredFollowerRetriesAfterLeaderFailure(t *testing.T) {
	cat, names := testSetup(t, 2, 24, 2)
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: 16})
	g := newGate()
	x.wrapSource = func(s proxrank.Source) proxrank.Source { return gatedSource{Source: s, g: g} }

	// Leader with a tiny private deadline; its gated engine cannot
	// produce a single event before it expires.
	lreq := baseRequest(names)
	lreq.TimeoutMillis = 80
	leaderDone := make(chan error, 1)
	go func() {
		leaderDone <- x.ExecuteStream(context.Background(), lreq, func(api.ResultEvent) error { return nil })
	}()
	<-g.started

	// Follower with a generous deadline attaches mid-run.
	freq := baseRequest(names)
	freq.TimeoutMillis = 10_000
	followerDone := make(chan error, 1)
	var events []api.ResultEvent
	go func() {
		followerDone <- x.ExecuteStream(context.Background(), freq, func(ev api.ResultEvent) error {
			events = append(events, ev)
			return nil
		})
	}()
	waitStat(t, func() int64 { return x.Stats().MidRunAttaches }, 1, "midRunAttaches")

	// Let the leader's deadline lapse while the engine is still gated,
	// then open the gate: the leader's run dies on its deadline, the
	// follower must retry, win the retired flight, and complete.
	time.Sleep(150 * time.Millisecond)
	close(g.open)

	if err := <-leaderDone; asAPIError(err).Code != api.CodeTimeout {
		t.Fatalf("leader error = %v, want %s", err, api.CodeTimeout)
	}
	select {
	case err := <-followerDone:
		if err != nil {
			t.Fatalf("follower inherited the leader's failure: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("follower never completed after the leader failed")
	}
	if len(events) != freq.K+1 {
		t.Fatalf("follower saw %d events, want %d results + summary", len(events), freq.K)
	}
	st := x.Stats()
	if st.EngineRuns != 2 {
		t.Errorf("engineRuns = %d, want 2 (failed leader + retried follower)", st.EngineRuns)
	}
	if st.Coalesced != 0 {
		t.Errorf("coalesced = %d, want 0 (nothing was shared)", st.Coalesced)
	}
}
