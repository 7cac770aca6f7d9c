// Package broker decouples event production from event delivery: a
// Topic is a single-producer, multi-subscriber buffer of ordered events
// that the producer fills at its own speed and every subscriber drains
// at its own, with a bounded window on how far delivery may lag
// production before an overflow policy intervenes.
//
// The service layer uses one Topic per in-flight streamed query: the
// engine publishes each certified result the moment it exists and runs
// to completion at engine speed (releasing its worker slot), while the
// leader's sink, coalesced followers attaching mid-run, and any other
// subscriber consume independently. A subscriber always starts from
// event zero — the full history is retained for the Topic's lifetime —
// so a follower that attaches mid-run replays the certified prefix and
// then tails live events. History is bounded in practice because a
// streamed query publishes at most K result events plus one summary.
//
// Overflow: Capacity bounds how many events the producer may publish
// beyond what a subscriber has consumed, measured from the subscriber's
// attach point (replaying old history never throttles the producer; only
// falling behind on events published after attach does). When a
// subscriber exhausts its window, its policy decides:
//
//   - PolicyBlock: Publish waits for the subscriber to catch up, charging
//     the wait against that subscriber's cumulative block budget (the
//     Topic's block timeout); once the budget is spent the subscriber is
//     dropped. The budget is cumulative across the whole stream — a
//     consumer that drip-feeds just fast enough to stay at the window
//     edge cannot throttle the producer indefinitely, it can delay the
//     stream by at most the budget in total.
//   - PolicyDrop: the subscriber is dropped immediately. The producer
//     never waits.
//
// A dropped subscriber's Next returns ErrSlowSubscriber; everyone else
// is unaffected. Dropping is the safety valve that keeps one stalled
// consumer from holding the producer (and whatever resources it pins)
// hostage.
package broker

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Policy selects what happens to a subscriber that has exhausted its lag
// window when the producer wants to publish.
type Policy int8

const (
	// PolicyBlock makes Publish wait for the subscriber to catch up,
	// within the subscriber's cumulative block budget (the Topic's block
	// timeout), before dropping it.
	PolicyBlock Policy = iota
	// PolicyDrop drops the subscriber immediately, never delaying the
	// producer.
	PolicyDrop
)

// String returns the canonical spelling ("block" or "drop").
func (p Policy) String() string {
	if p == PolicyDrop {
		return "drop"
	}
	return "block"
}

// ErrSlowSubscriber is returned by Sub.Next after the subscriber was
// dropped for exceeding its lag window.
var ErrSlowSubscriber = errors.New("broker: subscriber dropped: consuming slower than the delivery buffer allows")

// ErrDone is returned by Sub.Next after every published event has been
// delivered and the Topic was closed without error.
var ErrDone = errors.New("broker: topic done")

// Topic is one replayable event log. Publish and Close must be called
// from a single producer goroutine; Subscribe and Sub methods are safe
// from any goroutine.
type Topic[T any] struct {
	mu sync.Mutex
	// arrived is closed whenever state a parked subscriber is waiting on
	// changes (new event, close, drop); advanced whenever state a parked
	// producer is waiting on changes (a subscriber consumed an event or
	// detached). Each is made by the side about to park on it and nil
	// while nobody is parked, so the uncontended path is signal-free and
	// a Topic nobody waits on never allocates a channel.
	arrived  chan struct{}
	advanced chan struct{}

	events   []T
	capacity int
	blockFor time.Duration
	closed   bool
	err      error // terminal error, valid once closed

	subs    map[*Sub[T]]struct{}
	dropped int // subscribers removed by overflow, for stats

	// ins, when attached, receives lifecycle telemetry (subscriber
	// counts, lag, blocked time, drops). Nil costs nothing.
	ins *Instruments
}

// DefaultCapacity is the lag window used when New is given a
// non-positive capacity.
const DefaultCapacity = 64

// DefaultBlockTimeout is the publish wait used for PolicyBlock
// subscribers when New is given a non-positive timeout.
const DefaultBlockTimeout = time.Second

// New returns an empty Topic. capacity bounds each subscriber's lag
// window (<=0 takes DefaultCapacity); blockFor is each PolicyBlock
// subscriber's cumulative block budget — the total time Publish will
// ever wait on it across the Topic's lifetime — before it is dropped
// (<=0 takes DefaultBlockTimeout).
func New[T any](capacity int, blockFor time.Duration) *Topic[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if blockFor <= 0 {
		blockFor = DefaultBlockTimeout
	}
	return &Topic[T]{
		// Room up front instead of growing from nothing: a query's K
		// results plus summary usually fit one default lag window.
		events:   make([]T, 0, min(capacity, DefaultCapacity)),
		capacity: capacity,
		blockFor: blockFor,
	}
}

// Sub is one subscription: an independent cursor over the Topic's
// events, starting at event zero.
type Sub[T any] struct {
	topic  *Topic[T]
	policy Policy
	cursor int
	base   int // len(events) at attach: lag is measured past this point
	// blockSpent is how much of the cumulative block budget this
	// subscriber has consumed by stalling the producer.
	blockSpent time.Duration
	dropped    bool
	gone       bool // canceled by the subscriber itself
}

// Subscribe attaches a new subscriber that will observe every event from
// the beginning of the Topic, then live events as they are published.
// Subscribing to a closed Topic is valid: the subscriber replays the
// final history and then sees the terminal outcome.
func (t *Topic[T]) Subscribe(policy Policy) *Sub[T] {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Sub[T]{topic: t, policy: policy, base: len(t.events)}
	if !t.closed {
		if t.subs == nil {
			t.subs = make(map[*Sub[T]]struct{})
		}
		t.subs[s] = struct{}{}
		if t.ins != nil {
			t.ins.Subscribers.Add(1)
		}
	}
	return s
}

// lag is the number of post-attach events the subscriber has not
// consumed yet. Callers hold t.mu.
func (s *Sub[T]) lag(published int) int {
	c := s.cursor
	if c < s.base {
		c = s.base
	}
	return published - c
}

// Publish appends one event, enforcing every live subscriber's lag
// window first: PolicyDrop laggards are dropped immediately, PolicyBlock
// laggards are waited on — the wait charged against each laggard's
// cumulative block budget — and dropped once their budget is spent.
// Budgets are cumulative across the Topic's lifetime, so a subscriber
// that repeatedly catches up at the last instant still delays the
// producer by at most blockFor in total, and concurrent laggards are
// charged in parallel rather than serially. Publish itself never fails;
// it returns the number of subscribers dropped by this call.
func (t *Topic[T]) Publish(ev T) int {
	t.mu.Lock()
	droppedBefore := t.dropped
	for {
		// Laggards entitled to throttle this publish, and the smallest
		// remaining budget among them (the longest this wait may last).
		var blocking []*Sub[T]
		var minRemain time.Duration
		for s := range t.subs {
			if s.lag(len(t.events)) < t.capacity {
				continue
			}
			remain := t.blockFor - s.blockSpent
			if s.policy == PolicyDrop || remain <= 0 {
				t.drop(s)
				continue
			}
			if len(blocking) == 0 || remain < minRemain {
				minRemain = remain
			}
			blocking = append(blocking, s)
		}
		if len(blocking) == 0 {
			break
		}
		advanced := make(chan struct{})
		t.advanced = advanced
		t.mu.Unlock()
		timer := time.NewTimer(minRemain)
		start := time.Now()
		select {
		case <-advanced:
		case <-timer.C:
		}
		timer.Stop()
		elapsed := time.Since(start)
		t.mu.Lock()
		t.advanced = nil // no longer parked, woken or timed out
		for _, s := range blocking {
			s.blockSpent += elapsed
		}
		if t.ins != nil {
			t.ins.BlockedNanos.Add(int64(elapsed))
			if t.ins.ObserveBlocked != nil {
				t.ins.ObserveBlocked(elapsed)
			}
		}
	}
	t.events = append(t.events, ev)
	t.notePeakLag()
	t.wakeSubscribers()
	n := t.dropped - droppedBefore
	t.mu.Unlock()
	return n
}

// drop removes a subscriber for exceeding its window. Callers hold t.mu.
func (t *Topic[T]) drop(s *Sub[T]) {
	if _, ok := t.subs[s]; !ok {
		return
	}
	delete(t.subs, s)
	s.dropped = true
	t.dropped++
	if t.ins != nil {
		t.ins.Subscribers.Add(-1)
		if s.policy == PolicyDrop {
			t.ins.DroppedDrop.Add(1)
		} else {
			t.ins.DroppedBlock.Add(1)
		}
	}
	t.wakeSubscribers()
}

// wakeSubscribers signals every waiting subscriber, if any. Callers hold
// t.mu.
func (t *Topic[T]) wakeSubscribers() {
	if t.arrived == nil {
		return
	}
	close(t.arrived)
	t.arrived = nil
}

// wakeProducer signals a waiting Publish, if any. Callers hold t.mu.
func (t *Topic[T]) wakeProducer() {
	if t.advanced == nil {
		return
	}
	close(t.advanced)
	t.advanced = nil
}

// Close marks the Topic complete with a terminal outcome. Subscribers
// drain the remaining events and then observe err (nil maps to ErrDone).
// The event history stays readable: late subscribers still replay it.
func (t *Topic[T]) Close(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.err = err
	t.wakeSubscribers()
}

// Dropped returns how many subscribers overflow has removed so far.
func (t *Topic[T]) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of events published so far.
func (t *Topic[T]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Next returns the subscriber's next event, waiting for the producer if
// none is pending. It ends with ErrDone after a clean Close, the Close
// error after a failed one, ErrSlowSubscriber if the subscriber was
// dropped, or ctx.Err() if the wait is abandoned (the subscription stays
// valid and a later Next resumes).
func (s *Sub[T]) Next(ctx context.Context) (T, error) {
	var zero T
	t := s.topic
	for {
		t.mu.Lock()
		switch {
		case s.dropped:
			t.mu.Unlock()
			return zero, ErrSlowSubscriber
		case s.cursor < len(t.events):
			ev := t.events[s.cursor]
			s.cursor++
			if !s.dropped && !s.gone {
				t.wakeProducer()
			}
			t.mu.Unlock()
			return ev, nil
		case t.closed:
			err := t.err
			t.mu.Unlock()
			if err == nil {
				err = ErrDone
			}
			return zero, err
		}
		if t.arrived == nil {
			t.arrived = make(chan struct{})
		}
		arrived := t.arrived
		t.mu.Unlock()
		select {
		case <-arrived:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// Cancel detaches the subscriber so it no longer constrains the
// producer. It is idempotent and safe after Close; a canceled subscriber
// may keep reading already-published history but never blocks anyone.
func (s *Sub[T]) Cancel() {
	t := s.topic
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.subs[s]; ok {
		delete(t.subs, s)
		if t.ins != nil {
			t.ins.Subscribers.Add(-1)
		}
		t.wakeProducer()
	}
	s.gone = true
}
