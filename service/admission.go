package service

import (
	"context"
	"errors"
	"time"

	"repro/api"
)

// applyDeadline wraps ctx with the query's effective deadline: the
// clamped client-requested TimeoutMillis, else the configured default,
// else fallback (0 = no deadline). The returned cancel is never nil.
func (x *Executor) applyDeadline(ctx context.Context, req *api.Request, fallback time.Duration) (context.Context, context.CancelFunc) {
	d := fallback
	if req.TimeoutMillis > 0 {
		// Clamp in milliseconds before converting: a huge TimeoutMillis
		// would overflow the Duration multiply into a negative (instantly
		// expired) deadline.
		millis := req.TimeoutMillis
		if maxMillis := x.cfg.MaxTimeout.Milliseconds(); millis > maxMillis {
			millis = maxMillis
		}
		d = time.Duration(millis) * time.Millisecond
	} else if x.cfg.DefaultTimeout > 0 {
		d = x.cfg.DefaultTimeout
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// acquireSlot claims a worker slot, bounded by the query's deadline; a
// query that cannot start before its deadline is shed rather than queued
// forever. A query that would have to wait is first admission-checked
// against the queue-depth watermark (Config.AdmissionQueue): past it the
// query is shed immediately with api.CodeOverloaded — a fast 503 the client
// can retry elsewhere beats queueing into a deadline it cannot meet.
// The release func is nil exactly when an error is returned.
func (x *Executor) acquireSlot(ctx context.Context) (func(), *api.Error) {
	claim := func() func() {
		x.inFlight.Add(1)
		return func() {
			x.inFlight.Add(-1)
			<-x.slots
		}
	}
	select {
	case x.slots <- struct{}{}:
		return claim(), nil
	default:
	}
	// Every slot is busy: this query queues. Shed it at the watermark —
	// the count below includes this query, so depth > limit means the
	// queue was already full when it arrived.
	if depth := x.queued.Add(1); depth > int64(x.cfg.AdmissionQueue) {
		x.queued.Add(-1)
		x.rejected.Add(1)
		return nil, api.Errorf(api.CodeOverloaded, "server overloaded: %d queries already queued (limit %d)", depth-1, x.cfg.AdmissionQueue)
	}
	defer x.queued.Add(-1)
	select {
	case x.slots <- struct{}{}:
		return claim(), nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.Canceled) {
			// The caller went away while queued — that is cancellation,
			// not overload; counting it as rejected would fake a capacity
			// signal out of ordinary client disconnects.
			x.canceled.Add(1)
			return nil, asAPIError(ctx.Err())
		}
		x.rejected.Add(1)
		return nil, api.Errorf(api.CodeOverloaded, "no worker available before the deadline: %v", ctx.Err())
	}
}
