package proxrank

import (
	"context"
	"errors"

	"repro/internal/core"
)

// Stream is the pipelined form of the operator: results are produced one
// at a time, best first, each certified against the bound before it is
// emitted. Input is pulled lazily, so consuming only a prefix pays only
// that prefix's I/O — the operator composes into query pipelines the way
// HRJN does in a relational engine.
//
// Stream is the low-level operator; most callers want the Query session
// built on top of it (see NewQuery), which adds batch semantics, DNF
// handling, and the api.Request surface.
type Stream struct {
	it *core.Iterator
}

// ErrStreamDone is returned by Stream.Next once the whole cross product
// has been emitted.
var ErrStreamDone = core.ErrIteratorDone

// NewStream builds a streaming proximity rank join over in-memory
// relations. Options.K is ignored; all other options apply — in
// particular Epsilon relaxes per-result certification exactly as it
// relaxes the batch stopping test, and the MaxSumDepths/MaxCombinations
// caps abort the stream with ErrDNF. An unbounded stream retains every
// formed-but-unemitted combination in compact rank form; set MaxBuffered
// (with BufferSpill to keep open enumeration exact, or BufferPrune when
// at most MaxBuffered results will be consumed) to bound it.
func NewStream(query Vector, rels []*Relation, opts Options) (*Stream, error) {
	return NewStreamInputs(query, relationInputs(rels), opts)
}

// NewStreamInputs builds a streaming proximity rank join over a mix of
// plain and sharded relations: sharded inputs are read through a lazy
// k-way merge of their shard streams, so consuming a prefix of the
// output still pays only that prefix's I/O.
func NewStreamInputs(query Vector, inputs []Input, opts Options) (*Stream, error) {
	fn, err := opts.aggregation()
	if err != nil {
		return nil, err
	}
	sources, err := buildSources(query, inputs, opts, fn)
	if err != nil {
		return nil, err
	}
	return NewStreamFromSources(query, sources, opts)
}

// NewStreamFromSources builds a streaming operator over caller-supplied
// sources. All sources must share one access kind consistent with
// opts.Access — a mismatched source would silently corrupt the bounds.
// This is the single point where streaming and batch execution invoke
// the engine: every facade entry point (TopK*, Query, Stream) funnels
// through it, so validation cannot drift between consumption models.
func NewStreamFromSources(query Vector, sources []Source, opts Options) (*Stream, error) {
	fn, err := opts.aggregation()
	if err != nil {
		return nil, err
	}
	if err := checkSourceKinds(sources, opts.Access); err != nil {
		return nil, err
	}
	eopts := opts.engineOptions(query, fn)
	eopts.K = 1
	it, err := core.NewIterator(sources, eopts)
	if err != nil {
		return nil, err
	}
	return &Stream{it: it}, nil
}

// Next returns the next-best combination, or ErrStreamDone once the
// cross product is exhausted, ErrDNF once a cap fired, or an access
// error.
func (s *Stream) Next() (Combination, error) { return s.NextContext(context.Background()) }

// NextContext is Next with cooperative cancellation: the pull loop aborts
// with a wrapped ctx.Err() once ctx expires. Cancellation does not poison
// the stream — a later call with a live context resumes where this one
// stopped, keeping all input read so far.
func (s *Stream) NextContext(ctx context.Context) (Combination, error) {
	c, err := s.it.NextContext(ctx)
	if errors.Is(err, core.ErrIteratorDNF) {
		return c, ErrDNF
	}
	return c, err
}

// DrainBest pops the best buffered combination without certifying it
// against the bound — the best-effort tail after ErrDNF, in the order a
// capped batch run reports.
func (s *Stream) DrainBest() (Combination, bool) { return s.it.DrainBest() }

// Buffered returns the number of formed combinations awaiting emission.
func (s *Stream) Buffered() int { return s.it.Buffered() }

// Threshold returns the current upper bound on unseen combinations.
func (s *Stream) Threshold() float64 { return s.it.Threshold() }

// Stats exposes the I/O and CPU cost paid so far.
func (s *Stream) Stats() Stats { return s.it.Stats() }

// Emitted returns the number of results produced so far.
func (s *Stream) Emitted() int64 { return s.it.Emitted() }
