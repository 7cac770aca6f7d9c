package proxrank

import (
	"context"
	"errors"
	"iter"

	"repro/api"
	"repro/internal/core"
)

// OptionsFromRequest normalizes a transport-neutral api.Request (central
// validation and defaulting, see api.Request.Normalize) and translates
// it into the query vector and engine options. It is the single bridge
// between the wire model and the engine: the service executor, the
// Query session, and the CLI all convert through it, so a request means
// the same thing on every surface.
//
// The request is normalized in place, under the given server-side
// limits if any (at most one Limits value; none enforces only the
// structural rules).
func OptionsFromRequest(req *api.Request, limits ...api.Limits) (Vector, Options, error) {
	if req == nil {
		return nil, Options{}, api.Errorf(api.CodeBadRequest, "request is required")
	}
	var lim api.Limits
	if len(limits) > 0 {
		lim = limits[0]
	}
	if aerr := req.Normalize(lim); aerr != nil {
		return nil, Options{}, aerr
	}
	opts := Options{
		K:               req.K,
		Epsilon:         req.Epsilon,
		MaxSumDepths:    req.MaxSumDepths,
		MaxCombinations: req.MaxCombinations,
	}
	algo, err := ParseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, Options{}, err
	}
	opts.Algorithm = algo
	if req.Access == api.AccessScore {
		opts.Access = ScoreAccess
	}
	if req.Transform == api.TransformIdentity {
		opts.Transform = IdentityScore
	}
	if w := req.Weights; w != nil {
		opts.Weights = Weights{Ws: w.Ws, Wq: w.Wq, Wmu: w.Wmu}
	}
	return Vector(req.Query), opts, nil
}

// Query is a first-class query session: the pipelined, ranked-enumeration
// form of the operator. Where TopK answers a fixed batch, a session
// delivers results one at a time, best first, each certified against the
// bound before it is emitted — Next(1) returns the rank-1 combination long
// before a full run would finish — and input is pulled lazily, so
// consuming only a prefix pays only that prefix's I/O, the way HRJN
// composes into a relational query pipeline. The engine state stays alive,
// so enumeration can continue past the initial K without restarting or
// re-reading input.
//
// All batch entry points (TopK and friends) are reimplemented as a
// session that is drained to K, so there is exactly one engine
// invocation path.
//
// A session ends in Close — the consumer decides when — which lets go of
// what it holds outside the heap: spill segment files, remote
// connections, R-tree traversal queues. Run closes by itself; every other
// way of consuming leaves the session open for more.
//
// A Query is single-goroutine; concurrent sessions over shared
// relations or indexes are safe.
type Query struct {
	it *core.Iterator
	k  int
}

// ErrStreamDone is returned by Query.Next once the whole cross product
// has been emitted.
var ErrStreamDone = core.ErrIteratorDone

// NewQuery builds a session from a transport-neutral request and the
// inputs its Relations field names, in order. The request is validated
// and defaulted through the api package; inputs may mix plain and
// sharded relations.
func NewQuery(req *api.Request, inputs ...Input) (*Query, error) {
	query, opts, err := OptionsFromRequest(req)
	if err != nil {
		return nil, err
	}
	if len(inputs) != len(req.Relations) {
		return nil, api.Errorf(api.CodeBadRequest,
			"request names %d relations but %d inputs were supplied", len(req.Relations), len(inputs))
	}
	return NewQueryInputs(query, inputs, opts)
}

// NewQueryInputs is the Options-level session constructor, for callers
// holding typed options (cosine proximity, a tracer, a spill directory)
// rather than a wire request. Sharded inputs are read through a lazy k-way merge of
// their shard streams, so consuming a prefix of the output still pays
// only that prefix's I/O.
func NewQueryInputs(query Vector, inputs []Input, opts Options) (*Query, error) {
	fn, err := opts.aggregation()
	if err != nil {
		return nil, err
	}
	sources, err := buildSources(query, inputs, opts, fn)
	if err != nil {
		return nil, err
	}
	return NewQuerySources(query, sources, opts)
}

// NewQuerySources builds a session over caller-supplied sources (remote
// services, fault-injected wrappers, custom orders). All sources must
// share one access kind consistent with opts.Access — a mismatched source
// would silently corrupt the bounds. This is the single point where
// streaming and batch execution invoke the engine: every facade entry
// point (TopK*, NewQuery*) funnels through it, so validation cannot drift
// between consumption models.
//
// A session is open unless MaxBuffered alone bounds it: an open session
// keeps every formed-but-unemitted combination (a ranked window, a spill
// heap, deferred subtrees, segment files under SpillDir), a bounded
// consumer keeps only the MaxBuffered it may return. Epsilon relaxes
// per-result certification exactly as it relaxes the batch stopping
// test.
func NewQuerySources(query Vector, sources []Source, opts Options) (*Query, error) {
	if opts.K < 1 {
		return nil, core.ErrBadK
	}
	fn, err := opts.aggregation()
	if err != nil {
		return nil, err
	}
	if err := checkSourceKinds(sources, opts.Access); err != nil {
		return nil, err
	}
	it, err := core.NewIterator(sources, opts.engineOptions(query, fn))
	if err != nil {
		return nil, err
	}
	return &Query{it: it, k: opts.K}, nil
}

// K returns the session's initial batch size.
func (q *Query) K() int { return q.k }

// Next returns the next (up to) n certified results, best first. Fewer
// than n come back only together with a non-nil error explaining why the
// stream ended there: ErrStreamDone after full exhaustion, ErrDNF once a
// MaxSumDepths/MaxCombinations cap fired (see DrainBest for the
// best-effort tail), ErrPastBound once a bounded consumer has delivered
// MaxBuffered results, or an access error. Results already collected are
// always returned alongside the error.
func (q *Query) Next(n int) ([]Combination, error) {
	return q.NextContext(context.Background(), n)
}

// NextContext is Next with cooperative cancellation. Cancellation does
// not poison the session: a later call with a live context resumes where
// this one stopped, keeping all input read so far.
func (q *Query) NextContext(ctx context.Context, n int) ([]Combination, error) {
	var out []Combination
	for len(out) < n {
		c, err := q.next(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

// next certifies and returns the next-best combination, under the facade's
// own sentinel for a fired cap.
func (q *Query) next(ctx context.Context) (Combination, error) {
	c, err := q.it.NextContext(ctx)
	if errors.Is(err, core.ErrIteratorDNF) {
		return c, ErrDNF
	}
	return c, err
}

// Results returns an iterator over the remaining results in rank order,
// pulling input lazily as each is certified; k need not be known up
// front — break whenever enough results have been seen. Exhaustion ends
// the sequence silently; any other failure (including a DNF cap) is
// yielded once as a non-nil error and ends it.
func (q *Query) Results(ctx context.Context) iter.Seq2[Combination, error] {
	return func(yield func(Combination, error) bool) {
		for {
			c, err := q.next(ctx)
			if errors.Is(err, ErrStreamDone) {
				return
			}
			if err != nil {
				yield(Combination{}, err)
				return
			}
			if !yield(c, nil) {
				return
			}
		}
	}
}

// Drain delivers results to emit, best first and each the moment it is
// certified, until the session has emitted its initial K. A run a
// MaxSumDepths/MaxCombinations cap cuts short delivers the uncertified
// best-effort tail (DrainBest) in report order too and returns dnf true;
// exhausting the cross product first is not an error. It is the one
// "drain to K" loop: Run collects from it, the service publishes from
// it, the CLI prints from it — which is what keeps batch responses and
// event sequences identical. Calling Next afterwards resumes enumeration
// past K on the same engine state.
func (q *Query) Drain(ctx context.Context, emit func(Combination)) (dnf bool, err error) {
	for n := q.k - q.Emitted(); n > 0; n-- {
		c, err := q.next(ctx)
		switch {
		case err == nil:
			emit(c)
		case errors.Is(err, ErrStreamDone):
			return false, nil
		case errors.Is(err, ErrDNF):
			// Batch DNF contract: report the best K formed so far. The
			// certified prefix was already emitted; the buffer holds the rest.
			for _, c := range q.DrainBest(n) {
				emit(c)
			}
			return true, nil
		default:
			return false, err
		}
	}
	return false, nil
}

// Run drains the session to its initial K with batch semantics and
// returns the familiar Result: a capped run comes back with DNF set and
// the engine's best-effort combinations instead of an error, exactly as
// the historical TopK did. It ends the session (see RunContext).
func (q *Query) Run() (Result, error) { return q.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation. Run is the one-shot
// form: it closes the session before returning, whatever the outcome.
func (q *Query) RunContext(ctx context.Context) (Result, error) {
	defer q.Close()
	var res Result
	var err error
	res.DNF, err = q.Drain(ctx, func(c Combination) { res.Combinations = append(res.Combinations, c) })
	if err != nil {
		return Result{}, err
	}
	res.Threshold = q.it.Threshold()
	res.Stats = q.it.Stats()
	return res, nil
}

// DrainBest pops up to n of the best formed-but-uncertified combinations
// — the best-effort tail after an ErrDNF from Next, in the order a
// capped batch run reports them.
func (q *Query) DrainBest(n int) []Combination {
	var out []Combination
	for len(out) < n {
		c, ok := q.it.DrainBest()
		if !ok {
			break
		}
		out = append(out, c)
	}
	return out
}

// Close ends the session: spill segments are removed and every source
// with a Close method (the library's own R-tree and merged streams, remote
// shard streams, a caller's) is closed. Idempotent. Afterwards Next fails
// with an error wrapping os.ErrClosed; Stats, Threshold and Emitted stay
// readable.
func (q *Query) Close() { q.it.Close() }

// Emitted returns the number of results delivered so far.
func (q *Query) Emitted() int { return int(q.it.Emitted()) }

// Buffered returns the number of scored combinations awaiting emission;
// an open session's deferred subtrees count once expanded.
func (q *Query) Buffered() int { return q.it.Buffered() }

// Threshold returns the current upper bound on undelivered combinations.
func (q *Query) Threshold() float64 { return q.it.Threshold() }

// Stats exposes the I/O and CPU cost paid so far.
func (q *Query) Stats() Stats { return q.it.Stats() }
