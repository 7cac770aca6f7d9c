package broker

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// drain consumes the subscription to its terminal error, returning the
// events seen.
func drain(t *testing.T, s *Sub[int]) ([]int, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out []int
	for {
		ev, err := s.Next(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// TestReplayThenTail: a subscriber attached mid-run sees the full prefix
// and then the live tail, in order.
func TestReplayThenTail(t *testing.T) {
	top := New[int](0, 0)
	for i := 0; i < 5; i++ {
		top.Publish(i)
	}
	late := top.Subscribe(PolicyBlock)
	for i := 5; i < 10; i++ {
		top.Publish(i)
	}
	top.Close(nil)
	got, err := drain(t, late)
	if !errors.Is(err, ErrDone) {
		t.Fatalf("terminal error %v, want ErrDone", err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d events, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d = %d, want %d", i, v, i)
		}
	}
}

// TestSubscribeAfterClose: the history outlives the producer.
func TestSubscribeAfterClose(t *testing.T) {
	top := New[int](0, 0)
	top.Publish(1)
	top.Publish(2)
	top.Close(nil)
	got, err := drain(t, top.Subscribe(PolicyBlock))
	if !errors.Is(err, ErrDone) || len(got) != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestCloseError: subscribers drain buffered events first, then observe
// the terminal error.
func TestCloseError(t *testing.T) {
	boom := errors.New("boom")
	top := New[int](0, 0)
	s := top.Subscribe(PolicyBlock)
	top.Publish(7)
	top.Close(boom)
	got, err := drain(t, s)
	if !errors.Is(err, boom) {
		t.Fatalf("terminal error %v, want boom", err)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("events before error: %v", got)
	}
}

// TestPublishNeverWaits: a subscriber that reads nothing while the
// producer publishes 10 000 events parks no Publish, is not dropped, and
// then reads every event followed by ErrDone.
func TestPublishNeverWaits(t *testing.T) {
	const n = 10000
	top := New[int](0, 0)
	stalled := top.Subscribe(PolicyBlock)
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < n; i++ {
			top.Publish(i)
		}
		top.Close(nil)
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish parked on a subscriber that reads nothing")
	}
	got, err := drain(t, stalled)
	if !errors.Is(err, ErrDone) {
		t.Fatalf("terminal error %v, want ErrDone", err)
	}
	if len(got) != n {
		t.Fatalf("stalled subscriber read %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d = %d, want %d", i, v, i)
		}
	}
}

// TestCancelDetaches: Cancel takes the subscriber out of the
// Subscribers gauge exactly once, and a canceled subscriber still reads
// the history.
func TestCancelDetaches(t *testing.T) {
	ins := &Instruments{}
	top := New[int](0, 0)
	top.Attach(ins)
	s := top.Subscribe(PolicyBlock)
	other := top.Subscribe(PolicyBlock)
	if got := ins.Subscribers.Load(); got != 2 {
		t.Fatalf("gauge %d after two subscribes, want 2", got)
	}
	top.Publish(0)
	top.Publish(1)
	s.Cancel()
	s.Cancel()
	if got := ins.Subscribers.Load(); got != 1 {
		t.Fatalf("gauge %d after canceling one subscriber twice, want 1", got)
	}
	top.Publish(2)
	top.Close(nil)
	got, err := drain(t, s)
	if !errors.Is(err, ErrDone) || len(got) != 3 {
		t.Fatalf("canceled subscriber read %v (%v), want 3 events and ErrDone", got, err)
	}
	other.Cancel()
	top.Subscribe(PolicyBlock).Cancel() // attached after Close: never counted
	if got := ins.Subscribers.Load(); got != 0 {
		t.Fatalf("gauge %d after every cancel, want 0", got)
	}
}

// TestNextContextCancel: an abandoned wait returns ctx.Err and the
// subscription survives.
func TestNextContextCancel(t *testing.T) {
	top := New[int](0, 0)
	s := top.Subscribe(PolicyBlock)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next: %v, want deadline exceeded", err)
	}
	top.Publish(42)
	ev, err := s.Next(context.Background())
	if err != nil || ev != 42 {
		t.Fatalf("resumed Next = %d, %v", ev, err)
	}
}

// TestConcurrentSubscribers: many subscribers at different speeds all
// observe the identical full sequence, raced under -race.
func TestConcurrentSubscribers(t *testing.T) {
	const n = 500
	top := New[int](0, 0)
	var wg sync.WaitGroup
	results := make([][]int, 8)
	for i := range results {
		i := i
		s := top.Subscribe(PolicyBlock)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := drain(t, s)
			if !errors.Is(err, ErrDone) {
				t.Errorf("sub %d: %v", i, err)
			}
			results[i] = got
		}()
	}
	for i := 0; i < n; i++ {
		top.Publish(i)
	}
	top.Close(nil)
	wg.Wait()
	for i, got := range results {
		if len(got) != n {
			t.Fatalf("sub %d saw %d events, want %d", i, len(got), n)
		}
		for j, v := range got {
			if v != j {
				t.Fatalf("sub %d event %d = %d", i, j, v)
			}
		}
	}
}
