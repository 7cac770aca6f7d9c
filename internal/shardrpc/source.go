package shardrpc

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/relation"
)

// RemoteSource streams a set of remote shards that share their owners as
// one relation.BoundedSource: the canonical merge of the set, which the
// server computes, so the engine and merge layers cannot tell it from a
// local merge of those shards. It pulls batches over a checked-out peer
// connection, resumes byte-identically after a broken connection by
// re-pulling at its consumed offset (failing over to a replica owner
// when one exists), and reports the least key lower bound of its shards
// so MergedSource defers opening it — the mechanism behind
// distance-aware shard pruning, which the server's merge carries on
// within the set. A RemoteSource is single-stream state and must not be
// shared across goroutines.
type RemoteSource struct {
	parent *relation.Relation // metadata stub of the logical relation
	kind   relation.AccessKind
	bound  float64

	relName string
	shards  []int // the set, ascending
	access  string
	query   []float64
	batch   int  // rows the next exchange asks for
	ramp    bool // batch doubles per successful exchange up to DefaultBatch
	owners  []*Peer
	ctx     context.Context
	hedge   HedgePolicy

	// opened flips on the first NextKeyed call: a source that ends its
	// query with opened still false was pruned — the merge never needed
	// any key at or past its bound.
	opened bool
	// read is the largest count of the set's shards the server reported
	// its merge had read (see ShardsRead).
	read int

	// partial lets the source degrade instead of failing: when every
	// replica is unreachable or open-circuit, the stream ends early and
	// missing records that its set's tail was abandoned.
	partial bool
	missing bool

	conn     net.Conn
	peer     *Peer // owner of conn
	ownerIdx int   // owner to try on the next (re)connect
	buf      []WireTuple
	pos      int
	offset   int // rows consumed from the stream (resume point)
	done     bool

	// Hedge budget: hedges stay under ~10% of exchanges. A hedge lane
	// counts itself from its own goroutine.
	pulls  int
	hedges atomic.Int64
}

// OpenRemoteShards builds the stream of a set of shards of a discovered
// remote relation, named ascending, that share one owner list (one of
// rr.Groups, or any part of one). parent must be the stub (or local
// twin) of the logical relation; access is the wire access name
// (api.AccessDistance or api.AccessScore) with query set for distance
// access. Nothing is sent until the first read — constructing a
// RemoteSource is free, which is what lets a coordinator set up every
// set's source and let the merge decide which ones to actually open. A
// positive batch fixes the rows asked for per exchange; batch <= 0 ramps
// them from rampStart up to DefaultBatch, so a set the merge takes a few
// rows from ships a few.
func OpenRemoteShards(ctx context.Context, parent *relation.Relation, rr *RemoteRelation, shards []int, access string, query []float64, batch int) (*RemoteSource, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	kind, err := kindOf(access)
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shardrpc: an empty shard set of relation %q", rr.Name)
	}
	owners := rr.Owners[shards[0]]
	if len(owners) == 0 {
		return nil, fmt.Errorf("shardrpc: no peer owns shard %d of relation %q", shards[0], rr.Name)
	}
	bound := math.Inf(1)
	for j, s := range shards {
		if j > 0 && s <= shards[j-1] {
			return nil, fmt.Errorf("shardrpc: shard set %v of relation %q is not ascending", shards, rr.Name)
		}
		if !slices.Equal(rr.Owners[s], owners) {
			return nil, fmt.Errorf("shardrpc: shards %d and %d of relation %q have different owners", shards[0], s, rr.Name)
		}
		bounds, ok := rr.Bounds[s]
		if !ok {
			return nil, fmt.Errorf("shardrpc: no bounds for shard %d of relation %q", s, rr.Name)
		}
		bound = min(bound, bounds.KeyLowerBound(kind, query))
	}
	ramp := batch <= 0
	if ramp {
		batch = rampStart
	}
	return &RemoteSource{
		parent:  parent,
		kind:    kind,
		bound:   bound,
		relName: rr.Name,
		shards:  shards,
		access:  access,
		query:   query,
		batch:   batch,
		ramp:    ramp,
		owners:  owners,
		ctx:     ctx,
		hedge:   rr.Hedge,
	}, nil
}

// OpenRemoteShard is OpenRemoteShards over the one shard.
func OpenRemoteShard(ctx context.Context, parent *relation.Relation, rr *RemoteRelation, shard int, access string, query []float64, batch int) (*RemoteSource, error) {
	return OpenRemoteShards(ctx, parent, rr, []int{shard}, access, query, batch)
}

// The ramp: the first exchange asks for rampStart rows, each successful
// one multiplies the next request by rampGrowth. On coord3_wire start
// sizes 4 and 16 read within noise of each other, 32 costs a tenth of
// the throughput and 64 a fifth (EXPERIMENTS.md, PR 12).
const (
	rampStart  = 16
	rampGrowth = 2
)

// kindOf maps a wire access name onto the relation-layer access kind.
func kindOf(access string) (relation.AccessKind, error) {
	switch access {
	case api.AccessScore:
		return relation.ScoreAccess, nil
	case api.AccessDistance:
		return relation.DistanceAccess, nil
	}
	return 0, fmt.Errorf("shardrpc: unknown access kind %q", access)
}

// Kind implements relation.Source.
func (r *RemoteSource) Kind() relation.AccessKind { return r.kind }

// Relation implements relation.Source: the logical parent, so σ_max,
// dimensionality, and error messages reflect what the caller queried.
func (r *RemoteSource) Relation() *relation.Relation { return r.parent }

// KeyLowerBound implements relation.BoundedSource.
func (r *RemoteSource) KeyLowerBound() float64 { return r.bound }

// Opened reports whether the stream was ever read. False after a query
// completes means every shard of the set was pruned.
func (r *RemoteSource) Opened() bool { return r.opened }

// ShardsRead reports how many of the set's shards the stream read: none
// when it was never opened, and otherwise the server's count — every
// shard of a set opened but never answered, which cannot be shown to
// have pruned any. The rest of the set was pruned by the server's merge.
// The server merges a batch ahead of what the coordinator consumes, so
// it may count a shard the coordinator's own merge would not have
// reached.
func (r *RemoteSource) ShardsRead() int {
	switch {
	case !r.opened:
		return 0
	case r.read == 0:
		return len(r.shards)
	}
	return r.read
}

// Consumed returns how many rows the stream has delivered.
func (r *RemoteSource) Consumed() int { return r.offset }

// Shards returns the shard indices this source streams, ascending.
func (r *RemoteSource) Shards() []int { return r.shards }

// RelationName returns the logical relation this source streams.
func (r *RemoteSource) RelationName() string { return r.relName }

// SetPartial switches the source into partial mode: when every replica
// of its set is unreachable or open-circuit, the stream ends early
// (reporting Missing) instead of failing the query. The default —
// partial off — fails with CodeUnavailable as strict callers expect.
func (r *RemoteSource) SetPartial(ok bool) { r.partial = ok }

// Missing reports whether the source abandoned its set: partial mode
// was on and every replica was down when more rows were needed. A
// missing source's delivered prefix is still exact; only the tail (or,
// when it never connected, the whole set) is absent.
func (r *RemoteSource) Missing() bool { return r.missing }

// Next implements relation.Source.
func (r *RemoteSource) Next() (relation.Tuple, error) {
	t, _, _, err := r.NextKeyed()
	return t, err
}

// NextKeyed implements relation.KeyedSource. Transport failures retry
// transparently (redial, replica failover, offset resume); only after
// the retry budget is spent does it fail, with an *api.Error of code
// CodeUnavailable.
func (r *RemoteSource) NextKeyed() (relation.Tuple, float64, int, error) {
	r.opened = true
	for r.pos >= len(r.buf) {
		if r.done {
			return relation.Tuple{}, 0, 0, relation.ErrExhausted
		}
		if err := r.fetch(); err != nil {
			return relation.Tuple{}, 0, 0, err
		}
	}
	w := r.buf[r.pos]
	r.pos++
	r.offset++
	return w.Tuple(), w.Key, w.Ord, nil
}

// fetch pulls the next batch into buf. A healthy checked-out connection
// continues the stream with VerbNext; otherwise it (re)connects —
// rotating through replica owners whose circuit breakers admit traffic
// — and re-opens with VerbPull at the consumed offset, which resumes
// the deterministic stream exactly where the last delivered row left
// it. When every replica is open-circuit the fetch fails fast without
// burning the retry budget on a shard known to be down; in partial mode
// that (and an exhausted retry budget) degrades the stream to an early
// end instead of an error.
func (r *RemoteSource) fetch() error {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		// Fail over before backing off: the first len(owners) attempts
		// each reach an owner this fetch has not tried, so they run at
		// once; only a return to a tried owner waits. A lone owner keeps
		// the plain backoff schedule.
		if n := attempt - len(r.owners) + 1; n > 0 {
			if err := sleepCtx(r.ctx, backoff(n)); err != nil {
				return err
			}
		}
		verb := VerbNext
		if r.conn == nil {
			peer := r.pickOwner()
			if peer == nil {
				if lastErr == nil {
					lastErr = fmt.Errorf("all %d replica(s) open-circuit", len(r.owners))
				}
				return r.unreachable(lastErr)
			}
			if attempt > 0 || lastErr != nil {
				peer.Retries.Add(1)
			}
			c, err := peer.get(r.ctx)
			if err != nil {
				peer.Breaker().Record(false)
				lastErr = fmt.Errorf("dial %s: %w", peer.Addr, err)
				continue
			}
			r.conn, r.peer = c, peer
			verb = VerbPull
		}
		req := Request{
			Verb:     verb,
			Relation: r.relName,
			Shards:   r.shards,
			Access:   r.access,
			Query:    r.query,
			Offset:   r.offset,
			Batch:    r.batch,
		}
		rep, err := r.exchangeHedged(&req)
		if err != nil {
			if r.ctx.Err() != nil {
				return r.ctx.Err()
			}
			lastErr = err
			continue
		}
		if rep.Err != nil {
			// The server answered: a structured refusal, not a transport
			// fault. Surface it without burning retries.
			r.release()
			return rep.Err
		}
		r.buf, r.pos, r.done = rep.rows, 0, rep.done
		r.read = min(max(r.read, rep.read), len(r.shards))
		if r.done {
			r.release()
		} else if r.ramp {
			r.batch = min(r.batch*rampGrowth, DefaultBatch)
		}
		return nil
	}
	return r.unreachable(lastErr)
}

// pickOwner returns the next replica whose breaker admits a request,
// rotating from where the last (re)connect left off, or nil when every
// replica is open-circuit.
func (r *RemoteSource) pickOwner() *Peer {
	for i := 0; i < len(r.owners); i++ {
		p := r.owners[r.ownerIdx%len(r.owners)]
		r.ownerIdx++
		if p.Breaker().Allow() {
			return p
		}
	}
	return nil
}

// unreachable ends a fetch whose every avenue failed: an error in
// strict mode, a degraded early end of stream in partial mode.
func (r *RemoteSource) unreachable(lastErr error) error {
	if r.partial {
		r.missing = true
		r.buf, r.pos, r.done = nil, 0, true
		r.release()
		return nil
	}
	return api.Errorf(api.CodeUnavailable,
		"shards %v of relation %q unreachable after %d attempts (last error: %v)",
		r.shards, r.relName, maxAttempts, lastErr)
}

// exchangeHedged performs one exchange on the checked-out connection,
// on the caller's goroutine. When the policy allows, a hedge re-pulls
// the same offset from another replica if the primary is slower than
// the trigger; the first lane to succeed wins and interrupts the other.
// Shard streams are deterministic and offset-addressed, so the output
// is byte-identical whichever lane wins. On success r.conn/r.peer hold
// the winning lane's connection; on failure they are cleared.
func (r *RemoteSource) exchangeHedged(req *Request) (*reply, error) {
	r.pulls++
	primary, pconn := r.peer, r.conn
	r.conn, r.peer = nil, nil
	limit := pullFrameLimit(req.Batch, r.parent.Dim())
	ctx, h := r.ctx, r.armHedge(req, primary, limit)
	if h != nil {
		ctx = h.ctx
		defer h.stop()
	}
	rep, err := primary.exchange(ctx, pconn, req, limit)
	if settle(ctx, primary, pconn, err, err == nil && h.claim()) {
		r.conn, r.peer = pconn, primary
		return rep, nil
	}
	if h.wait() {
		if h.conn != nil && r.ctx.Err() == nil {
			r.conn, r.peer = h.conn, h.peer
			return h.rep, nil
		}
		if h.conn != nil {
			h.conn.Close()
		}
		err = cmp.Or(h.err, err)
	}
	if r.ctx.Err() != nil {
		return nil, r.ctx.Err()
	}
	return nil, err
}

// settle closes out one lane of an exchange and reports whether it won.
// A lane that lost or failed closes its connection; its peer's breaker
// hears a failure only if the lane failed on its own, not cancelled.
func settle(ctx context.Context, p *Peer, c net.Conn, err error, won bool) bool {
	if won {
		p.Breaker().Record(true)
		return true
	}
	if c != nil {
		c.Close()
	}
	if err != nil && ctx.Err() == nil {
		p.Breaker().Record(false)
	} else {
		p.Breaker().Abandon()
	}
	return false
}

// hedge is one exchange's armed hedge: a timer whose goroutine, the only
// one an exchange starts, runs the hedge lane. Both lanes run under ctx,
// which the winner cancels to interrupt the loser through its deadline.
type hedge struct {
	ctx    context.Context
	cancel context.CancelFunc
	timer  *time.Timer
	won    atomic.Bool
	done   chan struct{} // closed once a fired lane has settled
	// The fired lane's outcome, read after done when the primary did not
	// win: conn is set when the lane won, err when it failed.
	rep  *reply
	err  error
	conn net.Conn
	peer *Peer
}

// armHedge starts the hedge timer for one exchange, or returns nil when
// this fetch may not hedge.
func (r *RemoteSource) armHedge(req *Request, primary *Peer, limit int) *hedge {
	if !r.hedgeAllowed() {
		return nil
	}
	h := &hedge{done: make(chan struct{})}
	h.ctx, h.cancel = context.WithCancel(r.ctx)
	hreq := *req
	hreq.Verb, hreq.Offset = VerbPull, r.offset
	from := r.ownerIdx
	h.timer = time.AfterFunc(r.hedgeDelay(primary, req.Batch), func() {
		defer close(h.done)
		if h.peer = r.pickHedgePeer(primary, from); h.peer == nil {
			return
		}
		r.hedges.Add(1)
		h.peer.Hedges.Add(1)
		c, err := h.peer.get(h.ctx)
		if err == nil {
			h.rep, err = h.peer.exchange(h.ctx, c, &hreq, limit)
		}
		if settle(h.ctx, h.peer, c, err, err == nil && h.claim()) {
			h.peer.HedgeWins.Add(1)
			h.conn = c
		}
		h.err = err
	})
	return h
}

// claim makes the calling lane the winner and interrupts the other,
// reporting false when the other lane won first. With no hedge the
// primary always wins.
func (h *hedge) claim() bool {
	if h == nil {
		return true
	}
	if h.won.Swap(true) {
		return false
	}
	h.cancel()
	return true
}

// wait reports whether the hedge fired, once its lane has settled.
func (h *hedge) wait() bool {
	if h == nil || h.timer.Stop() {
		return false
	}
	<-h.done
	return true
}

// stop disarms the timer and interrupts a lane still running.
func (h *hedge) stop() {
	h.timer.Stop()
	h.cancel()
}

// hedgeAllowed reports whether this fetch may hedge: hedging on, more
// than one replica, and the budget (~10% of exchanges, with one free)
// not yet spent.
func (r *RemoteSource) hedgeAllowed() bool {
	return !r.hedge.Disable && len(r.owners) > 1 && int(r.hedges.Load())*10 < r.pulls+9
}

// hedgeDelay is the trigger for hedging one exchange of batch rows: the
// fixed policy value, or the primary's own recent p90 for that size so
// only its slowest decile of requests hedge.
func (r *RemoteSource) hedgeDelay(primary *Peer, batch int) time.Duration {
	if r.hedge.After > 0 {
		return r.hedge.After
	}
	return primary.hedgeDelay(batch)
}

// pickHedgePeer returns a replica other than the primary whose breaker
// admits a request, scanning from owner index from, or nil.
func (r *RemoteSource) pickHedgePeer(primary *Peer, from int) *Peer {
	for i := 0; i < len(r.owners); i++ {
		p := r.owners[(from+i)%len(r.owners)]
		if p == primary {
			continue
		}
		if p.Breaker().Allow() {
			return p
		}
	}
	return nil
}

// release returns the checked-out connection to its peer's pool. The
// connection is always in a clean framing state here (every exchange
// either completed or closed it), and an abandoned server-side stream
// cursor is harmless: the next pull on the connection resets it.
func (r *RemoteSource) release() {
	if r.conn != nil {
		r.peer.put(r.conn)
		r.conn, r.peer = nil, nil
	}
}

// Close releases the source's connection without draining the stream.
// Idempotent; the source stays formally usable (a later read re-pulls at
// its offset), though callers treat Close as the end of its life.
func (r *RemoteSource) Close() { r.release() }

// Exhausted reports whether the stream ended naturally (every row
// delivered).
func (r *RemoteSource) Exhausted() bool { return r.done && r.pos >= len(r.buf) }

var _ relation.BoundedSource = (*RemoteSource)(nil)
