package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/agg"
	"repro/internal/pqueue"
	"repro/internal/relation"
	"repro/internal/vec"
)

// sessionBuffer is the engine's output buffer O (Algorithm 1): it holds
// formed-but-unemitted combinations in arena-backed rank form. Its ranked
// heap is a window of max entries (K in a batch run; in a session
// Options.MaxBuffered, or openWindow when that is 0), and a consumer
// taking at most max results has max − emitted left to take, so the heap
// retains that many (keep, at least one): the window stays full across
// emissions and its worst entry is a score floor for the whole run, below
// which formation cuts subtrees before materializing them (floor,
// Engine.candidates). What becomes of what the window does not keep
// follows from the run's declaration:
//
//   - A bounded consumer (a batch run; a session with MaxBuffered > 0)
//     drops it: a cut subtree, and an offer the full heap rejects. Exact
//     for the first max results in O(max) memory, and the Iterator
//     refuses to go past them (ErrIteratorPastBound).
//   - An open session (MaxBuffered 0) keeps it in memory: an eviction or
//     an offer below the window moves to the spill heap, and a cut
//     subtree becomes one deferredCut, expanded only when emission reaches
//     its key. Once the window drains, revival pops the best spilled
//     entries back into a fresh one (keep is max again). Exact for open
//     enumeration.
//
// The window is a min-max heap: emission pops the best while the cap
// evicts the worst, and it evolves identically in both kinds of session
// until it first drains. Spill invariant: every window entry is strictly
// better (score, then lexicographic ranks) than the boundary — the best
// spilled entry — and nothing is handed out while a deferred record's key
// exceeds it, so what peekBest returns is always the global best and
// emission order matches the full sort of the cross product.
type sessionBuffer struct {
	arena  *combArena
	max    int
	keep   int                     // retention: max less the pops since the heap last filled, at least 1
	heap   *pqueue.MinMax[combRef] // the window; min = worst, max = best
	stats  *Stats
	tracer Tracer // nil unless the run is traced

	// cuts holds an open session's deferred records (nil in a bounded
	// consumer), each re-formed and offered back by expand
	// (Engine.expandCut).
	cuts   *cutHeap
	expand func(deferredCut)

	// spill holds an open session's spilled entries, best first, in the
	// arena like the window's: an entry moves between the two as a slot,
	// and is ordered by heap operations only — revival pays for what it
	// takes, not for what it leaves. spilled is its length.
	spill       *pqueue.Heap[combRef]
	spilled     int
	hasBoundary bool
	boundScore  float64
	boundRanks  []int32
}

// openWindow is the window of an open session that leaves MaxBuffered at
// 0: large enough that a revival refills it with a useful batch, small
// enough that its floor cuts early.
const openWindow = 1024

// newSessionBuffer returns a bounded consumer's buffer when cuts is nil
// and an open session's otherwise.
func newSessionBuffer(arena *combArena, max int, stats *Stats, cuts *cutHeap) *sessionBuffer {
	refBefore := func(x, y combRef) bool {
		return before(x.score, arena.ranksAt(x.slot), y.score, arena.ranksAt(y.slot))
	}
	b := &sessionBuffer{
		arena: arena,
		max:   max,
		keep:  max,
		heap:  pqueue.NewMinMax(func(x, y combRef) bool { return refBefore(y, x) }),
		stats: stats,
		cuts:  cuts,
	}
	if cuts != nil {
		b.spill = pqueue.New(refBefore)
	}
	return b
}

// sessionWindow builds e's buffer as an Iterator's: a bounded consumer's
// window of MaxBuffered entries when that is positive, and otherwise an
// open session's — spilled entries and deferred records — behind a window
// of openWindow entries (or the test-only Options.window).
func sessionWindow(e *Engine) *sessionBuffer {
	opts := e.opts
	if opts.MaxBuffered > 0 {
		return newSessionBuffer(e.arena, opts.MaxBuffered, &e.stats, nil)
	}
	window := opts.window
	if window == 0 {
		window = openWindow
	}
	b := newSessionBuffer(e.arena, window, &e.stats, newCutHeap(e.n))
	b.tracer = opts.Tracer
	b.expand = e.expandCut
	return b
}

// buffered is the total number of retained combinations.
func (b *sessionBuffer) buffered() int { return b.heap.Len() + b.spilled }

func (b *sessionBuffer) trackPeak() {
	if l := b.buffered(); l > b.stats.PeakBuffered {
		b.stats.PeakBuffered = l
	}
}

func (b *sessionBuffer) setBoundary(score float64, ranks []int32) {
	b.boundScore = score
	b.boundRanks = append(b.boundRanks[:0], ranks...)
	b.hasBoundary = true
}

// spillRef moves a slot to the spill heap.
func (b *sessionBuffer) spillRef(ref combRef) {
	b.spill.Push(ref)
	b.spilled++
	b.stats.SpilledCombinations++
	if b.tracer != nil {
		b.tracer.TraceBuffer(TraceActionSpill, 1)
	}
}

// offer receives a formed combination: its aggregate score and the
// scratch rank vector, copied only if the combination is retained. A
// bounded heap keeps the best keep offers; what it does not keep is
// spilled in an open session and dropped in a bounded consumer.
func (b *sessionBuffer) offer(score float64, ranks []int32) {
	if b.cuts == nil {
		if b.heap.Len() < b.keep {
			b.heap.Push(combRef{slot: b.arena.alloc(ranks), score: score})
			b.trackPeak()
			return
		}
		worst, _ := b.heap.PeekMin()
		if before(score, ranks, worst.score, b.arena.ranksAt(worst.slot)) {
			b.heap.PopMin()
			b.arena.release(worst.slot)
			b.heap.Push(combRef{slot: b.arena.alloc(ranks), score: score})
		}
		return
	}
	ref := combRef{slot: b.arena.alloc(ranks), score: score}
	if b.hasBoundary && !before(score, ranks, b.boundScore, b.boundRanks) {
		b.spillRef(ref)
		b.trackPeak()
		return
	}
	b.heap.Push(ref)
	if b.heap.Len() > b.keep {
		ev, _ := b.heap.PopMin()
		b.setBoundary(ev.score, b.arena.ranksAt(ev.slot))
		b.spillRef(ev)
	}
	b.trackPeak()
}

// floor is the score below which an offer is certain not to be retained
// in ranked form: a full buffer (keep entries) keeps nothing below its
// worst retained entry, so the enumeration can cut those subtrees
// pre-materialization. In a batch run, full is K held, and the floor is
// the K-th best.
func (b *sessionBuffer) floor() (float64, bool) {
	if b.heap.Len() == b.keep {
		worst, _ := b.heap.PeekMin()
		return worst.score, true
	}
	return negInf, false
}

// topCut returns the best deferred record's key.
func (b *sessionBuffer) topCut() (float64, bool) {
	if b.cuts == nil {
		return 0, false
	}
	c, ok := b.cuts.heap.Peek()
	return c.key, ok
}

// cutFirst reports whether the best deferred record must be expanded
// before anything else is handed out: its key exceeds the heap maximum
// (best, when ok), or — the heap drained — the best spilled entry, or
// nothing else is left. A key equal to a score is not enough, since every
// member scores strictly below its key.
func (b *sessionBuffer) cutFirst(best combRef, ok bool) bool {
	key, has := b.topCut()
	switch {
	case !has:
		return false
	case ok:
		return key > best.score
	case b.hasBoundary:
		return key > b.boundScore
	}
	return true
}

// peekBest returns the best retained combination: deferred records whose
// key exceeds it are expanded first, and spilled entries are revived when
// the ranked heap has drained.
func (b *sessionBuffer) peekBest() (combRef, bool) {
	for {
		best, ok := b.heap.PeekMax()
		switch {
		case b.cutFirst(best, ok):
			c, _ := b.cuts.heap.Pop()
			b.expand(c)
		case !ok && b.spilled > 0:
			b.revive()
		default:
			return best, ok
		}
	}
}

// popBest removes and returns the best retained combination. The caller
// owns the ref's arena slot and must release it after materializing.
// Each pop is one result fewer the consumer can still take, so the
// retention shrinks with it (never below one: an open session keeps
// running with a one-entry heap until its next revival).
func (b *sessionBuffer) popBest() (combRef, bool) {
	b.peekBest()
	ref, ok := b.heap.PopMax()
	if ok && b.keep > 1 {
		b.keep--
	}
	return ref, ok
}

// revive moves the best spilled entries back into the window (at most max
// of them) behind a refreshed boundary. The refilled window opens afresh
// (keep = max), so the floor is back on once it is full. A deferred record
// ranks like a spilled entry at its key: peekBest expands it instead of
// reviving when its key exceeds the best spilled entry, and before handing
// out a revived entry below it. (score, ranks) keys are unique, so the
// spill heap's pops are exactly the entries, in the order, that a global
// sort would take.
func (b *sessionBuffer) revive() {
	take := min(b.spilled, b.max)
	if b.tracer != nil {
		b.tracer.TraceBuffer(TraceActionRevive, take)
	}
	for range take {
		ref, _ := b.spill.Pop()
		b.heap.Push(ref)
	}
	b.spilled -= take
	b.keep = b.max
	top, ok := b.spill.Peek()
	if !ok {
		b.hasBoundary = false
		return
	}
	b.setBoundary(top.score, b.arena.ranksAt(top.slot))
}

// Iterator is the pipelined form of the ProxRJ operator: instead of a
// fixed top-K it emits result combinations one at a time, each as soon as
// the bound certifies that no unseen combination can outrank it. This is
// the operator semantics of HRJN (rank join as a physical operator inside
// a pipeline) applied to proximity rank join; downstream consumers can
// stop pulling at any time, having paid I/O only for the prefix they
// consumed.
//
// Every formed combination that has not been emitted yet may eventually
// surface. An open session keeps each of them — the best in a ranked
// window, the rest spilled in compact rank form or deferred unformed — and
// a bounded consumer keeps only what it may still return
// (see sessionBuffer).
//
// A session ends in Close, whenever its consumer decides it is over; what
// the session holds outside the heap — the sources' connections and
// traversal queues — is let go there and nowhere else.
type Iterator struct {
	e       *Engine
	emitted int64
	err     error
	done    bool
}

// ErrIteratorDone is returned by Next after the cross product is
// exhausted.
var ErrIteratorDone = errors.New("core: iterator exhausted")

// ErrIteratorDNF is returned by Next once a MaxSumDepths/MaxCombinations
// cap has fired and no buffered combination can be certified anymore:
// the streaming twin of a batch run's DNF flag. The buffered best-effort
// results remain reachable through DrainBest.
var ErrIteratorDNF = errors.New("core: iterator aborted by MaxSumDepths/MaxCombinations cap")

// ErrIteratorPastBound is returned by Next once a bounded consumer — a
// session with MaxBuffered > 0 — has taken MaxBuffered results, emitted
// and drained together: its buffer dropped what ranks below them, so a
// further result could be wrong. A session that must enumerate past the
// bound is an open one: MaxBuffered 0.
var ErrIteratorPastBound = errors.New("core: iterator: bounded consumer has taken MaxBuffered results")

// errIteratorClosed is what Next returns after Close.
var errIteratorClosed = fmt.Errorf("core: iterator: %w", os.ErrClosed)

// NewIterator builds a pipelined proximity rank join operator. Options.K
// is ignored (results stream indefinitely); all other options behave as in
// NewEngine. The iterator owns the sources from here on: Close closes them.
func NewIterator(sources []relation.Source, opts Options) (*Iterator, error) {
	e, err := newEngine(sources, opts, true)
	if err != nil {
		return nil, err
	}
	return &Iterator{e: e}, nil
}

// Next returns the next-best combination, pulling as little input as
// possible to certify it. It returns ErrIteratorDone when every
// combination has been emitted, ErrIteratorPastBound once a bounded
// consumer has taken its MaxBuffered, or the underlying access error.
func (it *Iterator) Next() (Combination, error) {
	return it.NextContext(context.Background())
}

// NextContext is Next with cooperative cancellation: the pull loop checks
// ctx and aborts with a wrapped ctx.Err() once the deadline passes or the
// context is canceled. Cancellation does not poison the iterator — the
// prefixes read so far are kept, and a later call with a live context
// resumes where this one stopped.
func (it *Iterator) NextContext(ctx context.Context) (Combination, error) {
	if it.err != nil {
		return Combination{}, it.err
	}
	if it.pastBound() {
		return Combination{}, ErrIteratorPastBound
	}
	start := time.Now()
	defer func() { it.e.stats.TotalTime += time.Since(start) }()
	for {
		// Emission test: the buffered best is certified once it reaches the
		// bound less the approximation slack — the per-result form of the
		// batch stopping test, so a K-prefix of the stream pulls exactly
		// what the batch run would.
		best, ok := it.e.buf.peekBest()
		if ok && it.e.certifies(best.score) {
			return it.emitBest(), nil
		}
		if it.done {
			// Bound is −inf once everything is exhausted; flush the buffer.
			if _, ok := it.e.buf.peekBest(); ok {
				return it.emitBest(), nil
			}
			it.err = ErrIteratorDone
			return Combination{}, it.err
		}
		if err := ctx.Err(); err != nil {
			return Combination{}, fmt.Errorf("core: next canceled after %d accesses: %w", it.e.stats.SumDepths, err)
		}
		// Cap test sits where the batch loop has it: after the emission
		// test, before the next pull. Without further pulls the bound can
		// never tighten, so once capped nothing uncertified ever certifies.
		if it.e.capped() {
			return Combination{}, ErrIteratorDNF
		}
		ri := it.e.pull.choose(it.e)
		if ri < 0 {
			it.done = true
			continue
		}
		if err := it.e.step(ri); err != nil {
			it.err = err
			return Combination{}, err
		}
	}
}

// emitBest emits the best buffered combination; callers must have checked
// the buffer is non-empty.
func (it *Iterator) emitBest() Combination {
	c, _ := it.e.emit()
	it.emitted++
	return c
}

// pastBound reports whether a bounded consumer has taken all it may.
func (it *Iterator) pastBound() bool {
	return it.e.buf.cuts == nil && it.emitted >= int64(it.e.buf.max)
}

// DrainBest pops the best buffered combination without certifying it
// against the bound. After ErrIteratorDNF this yields the engine's
// best-effort tail in the same order a capped batch run reports: the
// buffer holds the best formed-but-unemitted combinations, so emitted
// results plus the drain reproduce the batch top-K exactly. A bounded
// consumer's drain stops where its Next would fail with
// ErrIteratorPastBound.
func (it *Iterator) DrainBest() (Combination, bool) {
	if it.pastBound() || it.err == errIteratorClosed {
		return Combination{}, false
	}
	if _, ok := it.e.buf.peekBest(); !ok {
		return Combination{}, false
	}
	return it.emitBest(), true
}

// Close ends the session: it closes every relation.Closer source and
// recycles the columns. Idempotent, and clean after any terminal state.
// Afterwards Next fails with an error wrapping os.ErrClosed and DrainBest
// yields nothing; Stats, Threshold and Emitted keep their last values.
func (it *Iterator) Close() {
	if it.err == errIteratorClosed {
		return
	}
	it.err = errIteratorClosed
	for _, rs := range it.e.rels {
		if c, ok := rs.src.(relation.Closer); ok {
			c.Close()
		}
	}
	it.e.recycle()
}

// Buffered returns the number of scored combinations awaiting emission;
// an open session's deferred records count once emission expands them.
func (it *Iterator) Buffered() int { return it.e.buf.buffered() }

// Emitted returns how many combinations have been produced so far.
func (it *Iterator) Emitted() int64 { return it.emitted }

// Stats exposes the cost metrics accumulated so far.
func (it *Iterator) Stats() Stats { return it.e.stats }

// Threshold returns the current upper bound on unemitted, unseen
// combinations.
func (it *Iterator) Threshold() float64 { return it.e.t }

// NaiveStream is the oracle for Iterator tests: the fully sorted cross
// product.
func NaiveStream(rels []*relation.Relation, q vec.Vector, fn *agg.EuclideanSum) ([]Combination, error) {
	total := 1
	for _, r := range rels {
		total *= r.Len()
		if total > 1<<22 {
			return nil, fmt.Errorf("core: cross product too large for NaiveStream")
		}
	}
	return Naive(rels, q, fn, total)
}
