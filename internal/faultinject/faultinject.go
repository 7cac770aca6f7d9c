// Package faultinject is a programmable fault layer for chaos testing
// the shardrpc transport. It wraps net.Listener/net.Conn pairs on the
// server side and injects rule-driven faults into the request/response
// exchange: connection refusal at accept, mid-stream resets, latency
// with jitter, slow-drip responses, and frame corruption.
//
// The wrapper understands the shardrpc framing (4-byte big-endian
// length + payload) just enough to find frame boundaries and sniff the
// request verb (a request frame's verb byte, a JSON request's "verb"),
// so rules can target a single verb and a specific occurrence (nth call,
// every Nth call, at most N times). It has no dependency on shardrpc
// itself and works on any protocol with the same framing.
//
// Faults are for tests and chaos builds only: proxserve refuses a
// -fault-spec unless PROXSERVE_CHAOS=1 is set in the environment.
package faultinject

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what a matched rule does to the exchange.
type Action string

const (
	// ActionRefuse closes the connection at accept time before any byte
	// is exchanged (the client sees an immediate EOF — operationally a
	// refused connection). Matched without a verb.
	ActionRefuse Action = "refuse"
	// ActionReset closes the connection mid-response: the length header
	// and half the body are written, then the socket dies.
	ActionReset Action = "reset"
	// ActionDelay sleeps Delay±Jitter before writing the response.
	ActionDelay Action = "delay"
	// ActionDrip writes the response in Chunk-byte pieces with Gap
	// between them (a slow-drip read from the client's point of view).
	ActionDrip Action = "drip"
	// ActionCorrupt flips bits in the response payload, leaving the
	// length header intact — the frame arrives whole but undecodable.
	ActionCorrupt Action = "corrupt"
)

// Rule matches a subset of exchanges and applies one Action to them.
// The zero selectors match everything: an empty Verb matches any verb
// (and, for ActionRefuse, the accept itself), an empty Peer matches any
// address, and Nth/Every/Times unset fire on every match.
type Rule struct {
	Verb  string // request verb to match ("" = any; ignored by refuse)
	Peer  string // substring of the local or remote address ("" = any)
	Nth   int    // fire only on the nth match (1-based)
	Every int    // fire on every nth match
	Times int    // fire at most this many times

	Action Action
	Delay  time.Duration // delay: base sleep
	Jitter time.Duration // delay: uniform extra sleep in [0, Jitter)
	Chunk  int           // drip: bytes per write (default 8)
	Gap    time.Duration // drip: sleep between chunks (default 1ms)

	matched atomic.Int64
	fired   atomic.Int64
}

// Fired reports how many times the rule has injected its fault.
func (r *Rule) Fired() int64 { return r.fired.Load() }

// take records one match and reports whether the rule fires on it.
func (r *Rule) take() bool {
	n := r.matched.Add(1)
	if r.Nth > 0 && n != int64(r.Nth) {
		return false
	}
	if r.Every > 1 && n%int64(r.Every) != 0 {
		return false
	}
	if r.Times > 0 && r.fired.Load() >= int64(r.Times) {
		return false
	}
	r.fired.Add(1)
	return true
}

// matchAddr reports whether the rule's Peer selector matches either end
// of the connection.
func (r *Rule) matchAddr(local, remote string) bool {
	return r.Peer == "" || strings.Contains(local, r.Peer) || strings.Contains(remote, r.Peer)
}

// Injector holds a rule set and wraps listeners with it. Safe for
// concurrent use; SetEnabled(false) heals every fault at once (useful
// for breaker-recovery tests).
type Injector struct {
	rules    []*Rule
	disabled atomic.Bool

	mu  sync.Mutex
	rnd *rand.Rand
}

// New builds an injector over the given rules. Rules are evaluated in
// order; the first one that matches and fires wins.
func New(rules ...*Rule) *Injector {
	return &Injector{rules: rules, rnd: rand.New(rand.NewSource(1))}
}

// SetEnabled turns the whole injector on or off. Disabled injectors
// pass every byte through untouched.
func (in *Injector) SetEnabled(on bool) { in.disabled.Store(!on) }

// Rules returns the injector's rules (for firing-count assertions).
func (in *Injector) Rules() []*Rule { return in.rules }

// Fired reports the total faults injected across all rules.
func (in *Injector) Fired() int64 {
	var n int64
	for _, r := range in.rules {
		n += r.Fired()
	}
	return n
}

// jitter draws a uniform duration in [0, d).
func (in *Injector) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return time.Duration(in.rnd.Int63n(int64(d)))
}

// match returns the first rule that matches (verb, addrs) and fires.
func (in *Injector) match(verb, local, remote string) *Rule {
	if in.disabled.Load() {
		return nil
	}
	for _, r := range in.rules {
		if r.Action == ActionRefuse {
			continue // accept-time only
		}
		if r.Verb != "" && r.Verb != verb {
			continue
		}
		if !r.matchAddr(local, remote) {
			continue
		}
		if r.take() {
			return r
		}
	}
	return nil
}

// matchAccept returns the first refuse rule that matches and fires for
// a freshly accepted connection.
func (in *Injector) matchAccept(local, remote string) *Rule {
	if in.disabled.Load() {
		return nil
	}
	for _, r := range in.rules {
		if r.Action != ActionRefuse || !r.matchAddr(local, remote) {
			continue
		}
		if r.take() {
			return r
		}
	}
	return nil
}

// Corrupt returns a copy of one frame (length header included) damaged
// the way ActionCorrupt damages it: a byte flipped mid-payload and the
// last byte flipped, under an honest header — so the client reads a
// whole frame and must refuse to decode it.
func Corrupt(frame []byte) []byte {
	bad := append([]byte(nil), frame...)
	if len(bad) > 4 {
		bad[4+(len(bad)-4)/2] ^= 0xFF
		bad[len(bad)-1] ^= 0xFF
	}
	return bad
}

// Listener wraps ln so every accepted connection passes through the
// injector. Refuse rules close connections at accept; everything else
// is applied per exchange by the wrapped conns.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: in}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if r := l.inj.matchAccept(addr(c.LocalAddr()), addr(c.RemoteAddr())); r != nil {
			c.Close()
			continue
		}
		return &conn{Conn: c, inj: l.inj}, nil
	}
}

func addr(a net.Addr) string {
	if a == nil {
		return ""
	}
	return a.String()
}

// conn is a server-side connection under fault injection. It
// reassembles request frames flowing through Read to sniff the verb,
// arms the matching rule, and applies it to the next complete response
// frame flowing through Write.
type conn struct {
	net.Conn
	inj *Injector

	mu      sync.Mutex
	rbuf    []byte // partial request frame bytes
	wbuf    []byte // partial response frame bytes
	pending *Rule  // armed action for the next response
	dead    bool   // reset fired; swallow everything
}

// errReset is returned to the server handler after a reset fires so its
// loop ends exactly as it would on a real broken socket.
type errReset struct{}

func (errReset) Error() string   { return "faultinject: connection reset" }
func (errReset) Timeout() bool   { return false }
func (errReset) Temporary() bool { return false }

// Read passes bytes through while scanning for complete request frames.
func (c *conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.scanRequests(b[:n])
	}
	return n, err
}

// scanRequests accumulates request bytes, and for every completed frame
// sniffs the verb and arms the first firing rule.
func (c *conn) scanRequests(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rbuf = append(c.rbuf, b...)
	for {
		frame, rest, ok := splitFrame(c.rbuf)
		if !ok {
			return
		}
		c.rbuf = rest
		if r := c.inj.match(verbOf(frame[4:]), addr(c.LocalAddr()), addr(c.RemoteAddr())); r != nil {
			c.pending = r
		}
	}
}

// requestVerbs names the verb bytes of a shardrpc request frame.
var requestVerbs = map[byte]string{1: "pull", 2: "next"}

// verbOf sniffs a request payload's verb: a request frame's ("PRXQ",
// version, verb byte) from its verb byte, a JSON one's from "verb".
func verbOf(payload []byte) string {
	if len(payload) > 5 && string(payload[:4]) == "PRXQ" {
		return requestVerbs[payload[5]]
	}
	var req struct {
		Verb string `json:"verb"`
	}
	_ = json.Unmarshal(payload, &req)
	return req.Verb
}

// splitFrame splits buf into its first complete frame (header included)
// and the remainder.
func splitFrame(buf []byte) (frame, rest []byte, ok bool) {
	if len(buf) < 4 {
		return nil, buf, false
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	if len(buf) < 4+n {
		return nil, buf, false
	}
	return buf[:4+n], buf[4+n:], true
}

// Write buffers until a complete response frame is present, then
// applies the armed action (if any) and forwards it.
func (c *conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, errReset{}
	}
	c.wbuf = append(c.wbuf, b...)
	var frames [][]byte
	for {
		frame, rest, ok := splitFrame(c.wbuf)
		if !ok {
			break
		}
		frames = append(frames, frame)
		c.wbuf = rest
	}
	c.mu.Unlock()
	for _, frame := range frames {
		if err := c.writeFrame(frame); err != nil {
			return len(b), err
		}
	}
	// From the caller's point of view the bytes are accepted; faults
	// surface on the write that completes a frame.
	return len(b), nil
}

// writeFrame forwards one complete frame, applying the pending rule.
func (c *conn) writeFrame(frame []byte) error {
	c.mu.Lock()
	r := c.pending
	c.pending = nil
	c.mu.Unlock()
	switch {
	case r == nil:
	case r.Action == ActionDelay:
		time.Sleep(r.Delay + c.inj.jitter(r.Jitter))
	case r.Action == ActionCorrupt:
		frame = Corrupt(frame)
	case r.Action == ActionDrip:
		chunk, gap := r.Chunk, r.Gap
		if chunk <= 0 {
			chunk = 8
		}
		if gap <= 0 {
			gap = time.Millisecond
		}
		for len(frame) > 0 {
			n := min(chunk, len(frame))
			if _, err := c.Conn.Write(frame[:n]); err != nil {
				return err
			}
			frame = frame[n:]
			if len(frame) > 0 {
				time.Sleep(gap)
			}
		}
		return nil
	case r.Action == ActionReset:
		half := frame[:4+(len(frame)-4)/2]
		_, _ = c.Conn.Write(half)
		c.mu.Lock()
		c.dead = true
		c.mu.Unlock()
		c.Conn.Close()
		return errReset{}
	}
	_, err := c.Conn.Write(frame)
	return err
}
