package shardrpc

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/relation"
)

// Retry policy for transient transport failures: redial and re-issue up
// to maxAttempts times with bounded exponential backoff. Structured
// api.Errors from the server are NOT retried — the server answered; it
// just said no.
const (
	maxAttempts    = 4
	backoffBase    = 25 * time.Millisecond
	backoffCap     = 400 * time.Millisecond
	defaultTimeout = 5 * time.Second
)

// Peer is one remote shard server: an address, a pool of idle
// connections, and the per-peer health counters the coordinator exports.
// A Peer is safe for concurrent use; individual connections are not, so
// streaming callers check one out for the duration of a stream.
type Peer struct {
	// Addr is the server's host:port.
	Addr string
	// DialTimeout bounds connection establishment; PullTimeout bounds one
	// request/response exchange. Zero means defaultTimeout.
	DialTimeout time.Duration
	PullTimeout time.Duration
	// ObservePull, when set, receives the duration of every completed
	// exchange (success or failure) — the hook the service layer binds to
	// its per-peer latency histogram without shardrpc importing obs.
	ObservePull func(d time.Duration, err error)

	// Pulls counts exchanges attempted, Retries those re-issued after a
	// transport failure, Reconnects the dials that were not first contact.
	Pulls      atomic.Int64
	Retries    atomic.Int64
	Reconnects atomic.Int64
	// Hedges counts hedged requests issued TO this peer; HedgeWins those
	// whose response was adopted ahead of the primary's.
	Hedges    atomic.Int64
	HedgeWins atomic.Int64
	// Rows counts tuple rows received in pull/next responses, consumed by
	// a merge or not (a hedge's losing lane included).
	Rows atomic.Int64

	mu     sync.Mutex
	idle   []net.Conn
	dialed bool
	closed bool
	brk    *Breaker

	// Recent exchange costs (successes only) in nanoseconds per costed
	// row, the basis of the adaptive hedge trigger: hedge when the primary
	// is slower than the peer's own recent p90 for a request of this size.
	latMu sync.Mutex
	lat   [latWindow]int64 // ring
	latN  int              // filled size
	latI  int              // next write index
}

// latWindow is the size of the per-peer latency ring.
const latWindow = 32

// hedgeFixedRows is an exchange's fixed cost — the round trip, the
// stream open — expressed in rows: asking for b rows is costed as
// b + hedgeFixedRows. Ramped streams mix 16-row and 512-row exchanges on
// one peer; a p90 over raw durations would be set by the small ones and
// every full-size pull would spend a hedge on a healthy replica.
const hedgeFixedRows = 64

// Breaker returns the peer's circuit breaker, creating it with default
// thresholds on first use.
func (p *Peer) Breaker() *Breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.brk == nil {
		p.brk = NewBreaker(BreakerConfig{})
	}
	return p.brk
}

// SetBreakerConfig replaces the peer's breaker with a fresh closed one
// under cfg. Call before serving traffic.
func (p *Peer) SetBreakerConfig(cfg BreakerConfig) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.brk = NewBreaker(cfg)
}

// observeLatency records one successful exchange that asked for batch
// rows.
func (p *Peer) observeLatency(d time.Duration, batch int) {
	p.latMu.Lock()
	p.lat[p.latI] = int64(d) / int64(batch+hedgeFixedRows)
	p.latI = (p.latI + 1) % latWindow
	if p.latN < latWindow {
		p.latN++
	}
	p.latMu.Unlock()
}

// defaultHedgeDelay is the adaptive trigger before any latency history
// exists.
const defaultHedgeDelay = 50 * time.Millisecond

// hedgeDelay returns this peer's adaptive hedge trigger for an exchange
// asking for batch rows: its recent p90 cost per row scaled to that size
// (so only the slowest decile hedges), clamped to [1ms, pullTimeout/2].
func (p *Peer) hedgeDelay(batch int) time.Duration {
	p.latMu.Lock()
	n := p.latN
	var buf [latWindow]int64
	copy(buf[:], p.lat[:])
	p.latMu.Unlock()
	if n < 8 {
		return defaultHedgeDelay
	}
	s := buf[:n]
	slices.Sort(s)
	d := time.Duration(s[(n*9)/10] * int64(batch+hedgeFixedRows))
	return min(max(d, time.Millisecond), p.pullTimeout()/2)
}

// NewPeer returns a peer for addr with default timeouts.
func NewPeer(addr string) *Peer { return &Peer{Addr: addr} }

func (p *Peer) dialTimeout() time.Duration {
	if p.DialTimeout > 0 {
		return p.DialTimeout
	}
	return defaultTimeout
}

func (p *Peer) pullTimeout() time.Duration {
	if p.PullTimeout > 0 {
		return p.PullTimeout
	}
	return defaultTimeout
}

// get returns an idle pooled connection or dials a new one.
func (p *Peer) get(ctx context.Context) (net.Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("shardrpc: peer %s is closed", p.Addr)
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	again := p.dialed
	p.dialed = true
	p.mu.Unlock()
	if again {
		p.Reconnects.Add(1)
	}
	d := net.Dialer{Timeout: p.dialTimeout()}
	return d.DialContext(ctx, "tcp", p.Addr)
}

// put returns a connection to the idle pool. Only connections in a clean
// framing state (one full response read per request written) may be
// returned; anything doubtful must be closed instead.
func (p *Peer) put(c net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Close drops the idle pool. Checked-out connections are unaffected;
// they are closed when their streams finish.
func (p *Peer) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// reply is one decoded response frame: the JSON Response, or the rows of
// a successful pull/next.
type reply struct {
	Response
	rows []WireTuple
	done bool // stream exhausted; no VerbNext needed
	read int  // shards of the pulled set the server has read
}

// framePool holds the buffers exchanges write and read their frames in.
var framePool sync.Pool

// exchange performs one request/response on a specific connection under
// the pull deadline, reporting to ObservePull. Cancelling ctx interrupts
// it through the deadline and fails it with ctx's error. limit caps the
// response payload it will accept.
func (p *Peer) exchange(ctx context.Context, c net.Conn, req *Request, limit int) (*reply, error) {
	p.Pulls.Add(1)
	start := time.Now()
	rep, err := func() (*reply, error) {
		buf, _ := framePool.Get().(*[]byte)
		if buf == nil {
			buf = new([]byte)
		}
		defer framePool.Put(buf)
		body, err := req.AppendFrame((*buf)[:0])
		if err != nil {
			return nil, err
		}
		*buf = body
		if err := c.SetDeadline(start.Add(p.pullTimeout())); err != nil {
			return nil, err
		}
		stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) }) // a past deadline interrupts I/O
		if _, err = c.Write(body); err == nil {
			// Both decoders below copy what they keep, so the payload's
			// bytes serve the next exchange.
			body, err = readPayload(c, limit, body)
		}
		if !stop() {
			// Cancelled, perhaps as the answer arrived: the deadline is spoiled.
			return nil, ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		*buf = body
		var rep reply
		if len(body) > 0 && body[0] == '{' {
			if err := json.Unmarshal(body, &rep.Response); err != nil {
				return nil, fmt.Errorf("shardrpc: decode frame: %w", err)
			}
			if rep.Err == nil && (req.Verb == VerbPull || req.Verb == VerbNext) {
				return nil, fmt.Errorf("shardrpc: peer %s answered %s with JSON instead of a row frame; every peer must run this build", p.Addr, req.Verb)
			}
			return &rep, nil
		}
		rep.rows, rep.done, rep.read, err = decodeRowFrame(body)
		return &rep, err
	}()
	d := time.Since(start)
	if err == nil {
		p.Rows.Add(int64(len(rep.rows)))
		p.observeLatency(d, req.Batch)
	}
	if p.ObservePull != nil {
		p.ObservePull(d, err)
	}
	return rep, err
}

// Call performs one pooled request/response exchange with retries: a
// transport failure closes the connection, backs off, redials, and
// re-issues the request. It is the control-plane path (hello, ping): row
// streams go through RemoteSource, which owns the connection a VerbNext
// is bound to and resumes by re-pulling at its offset. A structured
// server-side failure is returned as its *api.Error without retrying.
func (p *Peer) Call(ctx context.Context, req *Request) (*Response, error) {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			p.Retries.Add(1)
			if err := sleepCtx(ctx, backoff(attempt)); err != nil {
				return nil, err
			}
		}
		brk := p.Breaker()
		if !brk.Allow() {
			// Open circuit: fail fast instead of burning the rest of the
			// retry budget on a peer known to be down.
			if lastErr == nil {
				lastErr = fmt.Errorf("circuit open")
			}
			break
		}
		c, err := p.get(ctx)
		if err != nil {
			brk.Record(false)
			lastErr = err
			continue
		}
		rep, err := p.exchange(ctx, c, req, maxFrame)
		if err != nil {
			c.Close()
			if ctx.Err() != nil {
				brk.Abandon()
				return nil, ctx.Err()
			}
			brk.Record(false)
			lastErr = err
			continue
		}
		// The peer answered — a structured refusal still proves liveness.
		brk.Record(true)
		p.put(c)
		if rep.Err != nil {
			return nil, rep.Err
		}
		return &rep.Response, nil
	}
	return nil, api.Errorf(api.CodeUnavailable, "peer %s unreachable after %d attempts: %v", p.Addr, maxAttempts, lastErr)
}

// backoff returns the sleep before retry attempt n (n >= 1): a full-
// jitter draw over an exponential window doubling from backoffBase and
// capped at backoffCap. Deterministic backoff made replicas that failed
// together retry in lockstep; the uniform draw over [0, window] spreads
// the retry wave out.
func backoff(n int) time.Duration {
	return backoffJitter(min(backoffBase<<(n-1), backoffCap))
}

// backoffJitter draws the actual sleep given the window. A package
// variable so tests can pin it for deterministic timing.
var backoffJitter = func(window time.Duration) time.Duration {
	return time.Duration(rand.Int63n(int64(window) + 1))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RemoteRelation is the coordinator's merged view of one relation across
// a fleet: the metadata every peer agreed on, plus which peers own which
// shard and each shard's bounds. A shard owned by more than one peer
// (replication) gives streaming failover for free.
type RemoteRelation struct {
	Name     string
	MaxScore float64
	Dim      int
	Tuples   int
	Shards   int
	// Owners[s] lists the peers serving shard s, in fleet order.
	Owners map[int][]*Peer
	// Groups partitions the shards by identical Owners lists, each group
	// ascending and the groups in order of their first shard: what one
	// remote stream may name. Under ring ownership a group is the shards
	// that share s % peers. Discover sets it.
	Groups [][]int
	// Bounds[s] is shard s's bounding metadata.
	Bounds map[int]relation.ShardBounds
	// Hedge is the hedging policy sources over this relation inherit
	// (copied from the fleet at discovery).
	Hedge HedgePolicy
}

// HedgePolicy controls hedged pull/next requests on shards with more
// than one owner: when the primary replica's response is slower than
// the trigger, the same offset is pulled from another replica and the
// first complete response wins. Offset-addressed deterministic streams
// make the race invisible in the output — whichever replica answers,
// the bytes are the same.
type HedgePolicy struct {
	// After is the fixed hedge trigger. Zero selects the adaptive
	// trigger: the primary peer's own recent p90 exchange latency, so
	// only the slowest decile of requests hedge.
	After time.Duration
	// Disable turns hedging off entirely.
	Disable bool
}

// Stub builds the metadata-only relation the engine sees for a remote
// relation: correct name, σ_max, dimensionality, and tuple count, with
// no local tuples behind it.
func (r *RemoteRelation) Stub() (*relation.Relation, error) {
	return relation.NewStub(r.Name, r.MaxScore, r.Dim, r.Tuples)
}

// Fleet is the coordinator's set of shard-server peers.
type Fleet struct {
	peers []*Peer
	// Hedge is stamped onto every RemoteRelation Discover builds.
	Hedge HedgePolicy
}

// SetBreakerConfig applies cfg to every peer's circuit breaker.
func (f *Fleet) SetBreakerConfig(cfg BreakerConfig) {
	for _, p := range f.peers {
		p.SetBreakerConfig(cfg)
	}
}

// NewFleet builds a fleet over one peer per address.
func NewFleet(addrs []string) *Fleet {
	peers := make([]*Peer, len(addrs))
	for i, a := range addrs {
		peers[i] = NewPeer(a)
	}
	return &Fleet{peers: peers}
}

// Peers returns the fleet's peers in construction order.
func (f *Fleet) Peers() []*Peer { return f.peers }

// Close releases every peer's connection pool.
func (f *Fleet) Close() {
	for _, p := range f.peers {
		p.Close()
	}
}

// Discover hellos every peer and merges what they report into per-
// relation remote views. It fails loudly on disagreement — peers that
// report different metadata for the same relation name have not loaded
// identical data identically, and merging their streams would corrupt
// results — on partial coverage (a shard no responding peer owns),
// because a coordinator missing a shard can never certify a top-K, and on
// metadata no query could use (see checkRelation).
func (f *Fleet) Discover(ctx context.Context) (map[string]*RemoteRelation, error) {
	if len(f.peers) == 0 {
		return nil, fmt.Errorf("shardrpc: fleet has no peers")
	}
	rels := make(map[string]*RemoteRelation)
	for _, p := range f.peers {
		resp, err := p.Call(ctx, &Request{Verb: VerbHello})
		if err != nil {
			return nil, fmt.Errorf("shardrpc: hello %s: %w", p.Addr, err)
		}
		if resp.Hello == nil {
			return nil, fmt.Errorf("shardrpc: peer %s answered hello without a body", p.Addr)
		}
		for _, ri := range resp.Hello.Relations {
			if err := checkRelation(ri); err != nil {
				return nil, fmt.Errorf("shardrpc: peer %s: %w", p.Addr, err)
			}
			r, ok := rels[ri.Name]
			if !ok {
				r = &RemoteRelation{
					Name:     ri.Name,
					MaxScore: ri.MaxScore,
					Dim:      ri.Dim,
					Tuples:   ri.Tuples,
					Shards:   ri.Shards,
					Owners:   make(map[int][]*Peer),
					Bounds:   make(map[int]relation.ShardBounds),
					Hedge:    f.Hedge,
				}
				rels[ri.Name] = r
			} else if r.MaxScore != ri.MaxScore || r.Dim != ri.Dim || r.Tuples != ri.Tuples || r.Shards != ri.Shards {
				return nil, fmt.Errorf(
					"shardrpc: peers disagree on relation %q (peer %s reports maxScore=%v dim=%d tuples=%d shards=%d, fleet has maxScore=%v dim=%d tuples=%d shards=%d); all shard servers must load identical data with identical -shards",
					ri.Name, p.Addr, ri.MaxScore, ri.Dim, ri.Tuples, ri.Shards, r.MaxScore, r.Dim, r.Tuples, r.Shards)
			}
			for _, own := range ri.Owned {
				if prev, seen := r.Bounds[own.Index]; seen && !boundsEqual(prev, own.Bounds) {
					return nil, fmt.Errorf("shardrpc: peers disagree on the bounds of relation %q shard %d", ri.Name, own.Index)
				}
				r.Owners[own.Index] = append(r.Owners[own.Index], p)
				r.Bounds[own.Index] = own.Bounds
			}
		}
	}
	for name, r := range rels {
		for s := 0; s < r.Shards; s++ {
			if len(r.Owners[s]) == 0 {
				return nil, fmt.Errorf("shardrpc: no peer owns shard %d of relation %q — the fleet cannot answer queries over it", s, name)
			}
		}
		r.Groups = ownerGroups(r.Owners, r.Shards)
	}
	return rels, nil
}

// ownerGroups partitions shards [0, n) by identical owner lists: each
// group ascending, the groups in order of their first shard.
func ownerGroups(owners map[int][]*Peer, n int) [][]int {
	var groups [][]int
	for s := 0; s < n; s++ {
		g := slices.IndexFunc(groups, func(g []int) bool { return slices.Equal(owners[g[0]], owners[s]) })
		if g < 0 {
			groups = append(groups, nil)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], s)
	}
	return groups
}

// checkRelation refuses one relation of a hello that the coordinator
// cannot use. A hello is input from outside the process, and each of
// these would otherwise pass discovery and panic a query later: a
// relation that makes no stub, a shard count below one, an owned shard
// out of range, a rectangle missing or of another dimensionality, or a
// non-finite bound.
func checkRelation(ri RelationInfo) error {
	if _, err := relation.NewStub(ri.Name, ri.MaxScore, ri.Dim, ri.Tuples); err != nil {
		return err
	}
	if ri.Shards < 1 {
		return fmt.Errorf("relation %q: shard count %d must be at least 1", ri.Name, ri.Shards)
	}
	for _, own := range ri.Owned {
		b := own.Bounds
		switch {
		case own.Index < 0 || own.Index >= ri.Shards:
			return fmt.Errorf("owns shard %d of relation %q, out of range [0,%d)", own.Index, ri.Name, ri.Shards)
		case len(b.Min) != ri.Dim || len(b.Max) != ri.Dim:
			return fmt.Errorf("relation %q shard %d: bounds have no rectangle of dimension %d", ri.Name, own.Index, ri.Dim)
		case !finite(b.MaxScore) || !finite(b.Min...) || !finite(b.Max...):
			return fmt.Errorf("relation %q shard %d: bounds must be finite", ri.Name, own.Index)
		}
	}
	return nil
}

// finite reports whether no x is infinite or NaN.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// boundsEqual compares every field a coordinator prunes by: two owners of
// one shard that differ in any of them would be merged under whichever
// bound discovery saw last.
func boundsEqual(a, b relation.ShardBounds) bool {
	return a.MaxScore == b.MaxScore && a.Tuples == b.Tuples && slices.Equal(a.Min, b.Min) && slices.Equal(a.Max, b.Max)
}
