package service

import (
	"sync"
	"sync/atomic"

	"repro/api"
	"repro/internal/broker"
)

// flightGroup coalesces concurrent identical cache misses: the first
// caller of a key becomes the leader and starts the engine; every caller
// that arrives before the run settles consumes the leader's run instead
// of racing a duplicate. Keys are the executor's cache keys, so
// "identical" carries the same meaning as cache identity, catalog
// generations included.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one engine run and everything its consumers need from
// it. ans (the value the cache holds too) and err are written by leave
// before done is closed and read-only afterwards.
type flightCall struct {
	key  string // empty for a private call: never registered, never joined
	done chan struct{}
	ans  *answer
	err  error
	// topic is the run's delivery topic: the engine publishes wire events
	// into it at engine speed, and a stream follower that finds one
	// attaches mid-run — replaying the certified prefix, then tailing
	// live events — instead of waiting on done. Stored by the leader once
	// setup succeeds; until then followers load nil and wait on done.
	topic atomic.Pointer[broker.Topic[api.ResultEvent]]
}

// join registers interest in key. The boolean is true for the leader —
// who must eventually call leave — and false for followers, who wait on
// the call's done channel (or attach to its topic). The empty key hands
// back a private call: always led, never shared.
func (g *flightGroup) join(key string) (*flightCall, bool) {
	if key == "" {
		return &flightCall{done: make(chan struct{})}, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := &flightCall{key: key, done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// leave publishes the call's outcome and wakes everyone waiting on it.
// The key is retired before done is closed, so a follower that retries
// after a leader failure can become the next leader.
func (g *flightGroup) leave(c *flightCall, ans *answer, err error) {
	if c.key != "" {
		g.mu.Lock()
		delete(g.calls, c.key)
		g.mu.Unlock()
	}
	c.ans, c.err = ans, err
	close(c.done)
}
