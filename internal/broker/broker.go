// Package broker decouples event production from event delivery: a
// Topic is a single-producer, multi-subscriber append-only log of
// ordered events that the producer fills at its own speed and every
// subscriber reads at its own.
//
// The service layer uses one Topic per in-flight streamed query: the
// engine publishes each certified result the moment it exists and runs
// to completion at engine speed (releasing its worker slot), while the
// leader's sink, coalesced followers attaching mid-run, and any other
// subscriber consume independently. A subscriber always starts from
// event zero — the log is kept for the Topic's lifetime — so a follower
// that attaches mid-run replays the certified prefix and then tails live
// events. The log is bounded because a streamed query publishes at most
// K result events plus one summary.
//
// Publish never waits: it appends, wakes any parked reader and returns.
// No subscriber can delay the producer or another subscriber, and none
// is dropped for being slow — a reader that stalls still receives every
// event once it reads again.
package broker

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Policy is the type of Subscribe's argument. It selects nothing: a
// vestige kept while the benchmark harness still passes PolicyBlock,
// leaving with the ROADMAP item "`bench/` follows the code".
type Policy int8

// PolicyBlock is the one Policy, a vestige like its type.
const PolicyBlock Policy = 0

// ErrDone is returned by Sub.Next after every published event has been
// delivered and the Topic was closed without error.
var ErrDone = errors.New("broker: topic done")

// Instruments collects delivery telemetry across every Topic it is
// attached to; the broker only bumps its atomics.
type Instruments struct {
	// Subscribers is the number of currently attached subscribers across
	// all instrumented topics (a gauge: Subscribe adds, Cancel
	// subtracts).
	Subscribers atomic.Int64
}

// Topic is one replayable event log. Publish and Close must be called
// from a single producer goroutine; Subscribe and Sub methods are safe
// from any goroutine.
type Topic[T any] struct {
	mu sync.Mutex
	// arrived is closed when a new event or the close lands. A reader
	// about to park makes it and it is nil while nobody waits, so a
	// Topic nobody waits on never allocates a channel.
	arrived chan struct{}

	events []T
	closed bool
	err    error // terminal error, valid once closed

	// ins, when attached, counts subscribers. Nil costs nothing.
	ins *Instruments
}

// New returns an empty Topic whose log has room for room events before
// it grows. The duration is ignored: a vestige of the removed overflow
// budget, kept while the benchmark harness still passes one.
func New[T any](room int, _ time.Duration) *Topic[T] {
	return &Topic[T]{events: make([]T, 0, max(room, 0))}
}

// Attach wires ins into the Topic's subscriber count. Call it before
// the Topic is shared; passing nil is a no-op.
func (t *Topic[T]) Attach(ins *Instruments) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ins = ins
}

// Sub is one subscription: an independent cursor over the Topic's
// events, starting at event zero.
type Sub[T any] struct {
	topic  *Topic[T]
	cursor int
	// counted is whether this subscriber is in the Subscribers gauge;
	// Cancel takes it out once.
	counted bool
}

// Subscribe attaches a new subscriber that will observe every event from
// the beginning of the Topic, then live events as they are published.
// Subscribing to a closed Topic is valid: the subscriber replays the
// final history and then sees the terminal outcome, and is not counted
// as attached. The Policy argument is ignored (see Policy).
func (t *Topic[T]) Subscribe(Policy) *Sub[T] {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Sub[T]{topic: t}
	if !t.closed && t.ins != nil {
		s.counted = true
		t.ins.Subscribers.Add(1)
	}
	return s
}

// Publish appends one event and wakes any waiting subscriber. It never
// waits.
func (t *Topic[T]) Publish(ev T) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.wake()
	t.mu.Unlock()
}

// wake signals every waiting subscriber, if any. Callers hold t.mu.
func (t *Topic[T]) wake() {
	if t.arrived == nil {
		return
	}
	close(t.arrived)
	t.arrived = nil
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
	t.wake()
}

// Next returns the subscriber's next event, waiting for the producer if
// none is pending. It ends with ErrDone after a clean Close, the Close
// error after a failed one, or ctx.Err() if the wait is abandoned (the
// subscription stays valid and a later Next resumes).
func (s *Sub[T]) Next(ctx context.Context) (T, error) {
	var zero T
	t := s.topic
	for {
		t.mu.Lock()
		switch {
		case s.cursor < len(t.events):
			ev := t.events[s.cursor]
			s.cursor++
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

// Cancel detaches the subscriber: it leaves the Subscribers gauge, once
// however often Cancel is called. It is safe after Close, and a
// canceled subscriber may keep reading the history.
func (s *Sub[T]) Cancel() {
	t := s.topic
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.counted {
		s.counted = false
		t.ins.Subscribers.Add(-1)
	}
}
