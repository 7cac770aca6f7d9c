package broker

import (
	"sync/atomic"
	"time"
)

// Instruments collects delivery telemetry across every Topic it is
// attached to. The service layer owns one Instruments for all streamed
// queries and wires the counters into its metrics registry and stats
// snapshot; the broker itself stays dependency-free — it only bumps
// atomics and calls the optional observation hooks.
//
// All counter fields are safe for concurrent use. The hook functions
// must be set before the first Attach and never changed afterwards;
// they are called with the Topic's lock held and must be cheap and
// non-blocking (a histogram observation, not I/O).
type Instruments struct {
	// Subscribers is the number of currently attached subscribers across
	// all instrumented topics (a gauge: Subscribe adds, Cancel and
	// overflow drops subtract).
	Subscribers atomic.Int64
	// PeakLag is the largest post-attach lag (events published but not
	// consumed) any subscriber has reached.
	PeakLag atomic.Int64
	// BlockedNanos accumulates the producer time Publish spent parked on
	// block-policy laggards.
	BlockedNanos atomic.Int64
	// DroppedBlock and DroppedDrop count subscribers removed by
	// overflow, split by their policy: a DroppedBlock subscriber spent
	// its whole block budget first, a DroppedDrop one was removed the
	// moment it lagged a full window.
	DroppedBlock atomic.Int64
	DroppedDrop  atomic.Int64

	// ObserveLag, when set, receives the maximum subscriber lag after
	// each publish — the send-pacing signal.
	ObserveLag func(lag int)
	// ObserveBlocked, when set, receives each blocked-publish wait.
	ObserveBlocked func(d time.Duration)
}

// Attach wires ins into the Topic's lifecycle events. Call it before
// the Topic is shared; passing nil is a no-op.
func (t *Topic[T]) Attach(ins *Instruments) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ins = ins
}

// maxLag reports the largest post-attach lag among live subscribers.
// Callers hold t.mu.
func (t *Topic[T]) maxLag() int {
	max := 0
	for s := range t.subs {
		if l := s.lag(len(t.events)); l > max {
			max = l
		}
	}
	return max
}

// notePeakLag folds the current maximum lag into the instruments; with
// no subscriber attached there is no lag to observe. Callers hold t.mu.
func (t *Topic[T]) notePeakLag() {
	if t.ins == nil || len(t.subs) == 0 {
		return
	}
	lag := t.maxLag()
	for {
		cur := t.ins.PeakLag.Load()
		if int64(lag) <= cur || t.ins.PeakLag.CompareAndSwap(cur, int64(lag)) {
			break
		}
	}
	if t.ins.ObserveLag != nil {
		t.ins.ObserveLag(lag)
	}
}
