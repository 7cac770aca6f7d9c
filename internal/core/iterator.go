package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/pqueue"
	"repro/internal/relation"
	"repro/internal/vec"
)

// sessionBuffer holds a session's formed-but-unemitted combinations in
// arena-backed rank form. Unbounded by default, it supports a cap
// (Options.MaxBuffered). A consumer taking at most MaxBuffered results has
// MaxBuffered − emitted left to take, so a bounded ranked heap retains
// that many (keep, at least one): the buffer stays full across emissions
// and its worst entry is a score floor for the whole run, below which
// formation cuts subtrees before materializing them (refSink.floor,
// Engine.candidates). What becomes of what the heap does not keep follows
// from whether the session has a spill tier (Options.SpillDir):
//
//   - Without one the session is a bounded consumer and drops it: a cut
//     subtree, and an offer the full heap rejects. Exact for the first
//     MaxBuffered results in O(MaxBuffered) memory, and the Iterator
//     refuses to go past them (ErrIteratorPastBound).
//   - With one it keeps it: an eviction moves to a flat columnar spill
//     slab (score + ranks, no heap structure, no per-entry allocation)
//     that flushes to segment files at the tier's watermark, revived in
//     sorted batches once the ranked heap drains (each revival opens a
//     fresh window: keep is MaxBuffered again), and a cut subtree becomes
//     one deferredCut, expanded only when emission reaches its key. Exact
//     for open enumeration; the heap and arena stay O(MaxBuffered).
//
// The ranked heap is a min-max heap: emission pops the best while the cap
// evicts the worst, and it evolves identically with or without a tier
// until the heap first drains. Spill invariant: every heap entry is
// strictly better (score, then lexicographic ranks) than the boundary —
// the best spilled entry — and nothing is handed out while a deferred
// record's key exceeds it, so what peekBest returns is always the global
// best and emission order matches the unbounded buffer exactly.
type sessionBuffer struct {
	arena  *combArena
	max    int
	keep   int                     // retention: max less the pops since the heap last filled, at least 1
	heap   *pqueue.MinMax[combRef] // min = worst, max = best
	stats  *Stats
	tracer Tracer // nil unless the run is traced

	// cuts holds a spill session's deferred records (nil otherwise), each
	// re-formed and offered back by expand (Engine.expandCut).
	cuts   *cutHeap
	expand func(deferredCut)

	spillScores []float64
	spillRanks  []int32 // entry i occupies [i*n : (i+1)*n]
	hasBoundary bool
	boundScore  float64
	boundRanks  []int32

	// tier is non-nil exactly in a spill session. The slab flushes to its
	// segment files at the tier's watermark, and revival k-way merges the
	// slab with the segment streams — the global order an in-memory sort
	// would produce. err poisons the session on the first segment I/O
	// failure; Iterator surfaces it instead of emitting.
	tier *spillTier
	err  error
}

func newSessionBuffer(arena *combArena, max int, stats *Stats) *sessionBuffer {
	return &sessionBuffer{
		arena: arena,
		max:   max,
		keep:  max,
		heap:  pqueue.NewMinMax(arena.refWorse),
		stats: stats,
	}
}

func (b *sessionBuffer) spillCount() int {
	m := len(b.spillScores)
	if b.tier != nil {
		m += b.tier.pending()
	}
	return m
}

// buffered is the total number of retained combinations.
func (b *sessionBuffer) buffered() int { return b.heap.Len() + b.spillCount() }

func (b *sessionBuffer) trackPeak() {
	if l := b.buffered(); l > b.stats.PeakBuffered {
		b.stats.PeakBuffered = l
	}
}

// betterThanBoundary reports whether an incoming combination beats the
// spill boundary in the full result order.
func (b *sessionBuffer) betterThanBoundary(score float64, ranks []int32) bool {
	if score != b.boundScore {
		return score > b.boundScore
	}
	return lexLess32(ranks, b.boundRanks)
}

func (b *sessionBuffer) setBoundary(score float64, ranks []int32) {
	b.boundScore = score
	b.boundRanks = append(b.boundRanks[:0], ranks...)
	b.hasBoundary = true
}

func (b *sessionBuffer) spillAppend(score float64, ranks []int32) {
	b.spillScores = append(b.spillScores, score)
	b.spillRanks = append(b.spillRanks, ranks...)
	b.stats.SpilledCombinations++
	if b.tracer != nil {
		b.tracer.TraceBuffer(TraceActionSpill, 1)
	}
	if b.err == nil && len(b.spillScores) >= b.tier.watermark {
		b.flushSlab()
	}
}

// sortedSpillIndex returns slab indices in the canonical spill order:
// score descending, ties by ascending lexicographic ranks — the exact
// order revive emits and segment files are written in. (score, ranks) keys
// are unique, so any correct sort yields this one order.
func sortedSpillIndex(scores []float64, ranks []int32, n int) []int32 {
	idx := make([]int32, len(scores))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(x, y int32) int {
		switch sx, sy := scores[x], scores[y]; {
		case sx > sy:
			return -1
		case sx < sy:
			return 1
		}
		return slices.Compare(ranks[int(x)*n:(int(x)+1)*n], ranks[int(y)*n:(int(y)+1)*n])
	})
	return idx
}

// flushSlab sorts the in-memory slab and moves it to one segment file.
// On failure the slab is kept (nothing is lost) and the session is
// poisoned — a spill tier that cannot write cannot stay exact.
func (b *sessionBuffer) flushSlab() {
	n := b.arena.n
	m := len(b.spillScores)
	idx := sortedSpillIndex(b.spillScores, b.spillRanks, n)
	scores := make([]float64, m)
	ranks := make([]int32, m*n)
	for o, i := range idx {
		scores[o] = b.spillScores[i]
		copy(ranks[o*n:(o+1)*n], b.slabRanks(i))
	}
	if err := b.tier.flush(scores, ranks); err != nil {
		b.err = err
		return
	}
	b.spillScores = b.spillScores[:0]
	b.spillRanks = b.spillRanks[:0]
}

// slabRanks returns the ranks of slab entry i.
func (b *sessionBuffer) slabRanks(i int32) []int32 {
	n := b.arena.n
	return b.spillRanks[int(i)*n : (int(i)+1)*n]
}

// offer implements refSink. A bounded heap keeps the best keep offers;
// what it does not keep is spilled in a spill session and dropped in a
// bounded consumer.
func (b *sessionBuffer) offer(score float64, ranks []int32) {
	switch {
	case b.max <= 0:
		b.heap.Push(combRef{slot: b.arena.alloc(ranks), score: score})
		b.trackPeak()
	case b.tier != nil:
		if b.hasBoundary && !b.betterThanBoundary(score, ranks) {
			b.spillAppend(score, ranks)
			b.trackPeak()
			return
		}
		b.heap.Push(combRef{slot: b.arena.alloc(ranks), score: score})
		if b.heap.Len() > b.keep {
			ev, _ := b.heap.PopMin()
			evRanks := b.arena.ranksAt(ev.slot)
			b.spillAppend(ev.score, evRanks)
			b.setBoundary(ev.score, evRanks)
			b.arena.release(ev.slot)
		}
		b.trackPeak()
	default:
		if b.heap.Len() < b.keep {
			b.heap.Push(combRef{slot: b.arena.alloc(ranks), score: score})
			b.trackPeak()
			return
		}
		worst, _ := b.heap.PeekMin()
		if b.arena.beats(score, ranks, worst) {
			b.heap.PopMin()
			b.arena.release(worst.slot)
			b.heap.Push(combRef{slot: b.arena.alloc(ranks), score: score})
		}
	}
}

// floor implements refSink: a full buffer (keep entries) keeps nothing
// below its worst retained entry, so the enumeration can cut those
// subtrees pre-materialization.
func (b *sessionBuffer) floor() (float64, bool) {
	if b.max > 0 && b.heap.Len() == b.keep {
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
	for b.err == nil {
		best, ok := b.heap.PeekMax()
		switch {
		case b.cutFirst(best, ok):
			c, _ := b.cuts.heap.Pop()
			b.expand(c)
		case !ok && b.spillCount() > 0:
			b.revive()
		default:
			return best, ok
		}
	}
	return b.heap.PeekMax()
}

// popBest removes and returns the best retained combination. The caller
// owns the ref's arena slot and must release it after materializing.
// Each pop is one result fewer the consumer can still take, so the
// retention shrinks with it (never below one: a spill session keeps
// running with a one-entry heap until its next revival).
func (b *sessionBuffer) popBest() (combRef, bool) {
	b.peekBest()
	ref, ok := b.heap.PopMax()
	if ok && b.keep > 1 {
		b.keep--
	}
	return ref, ok
}

// revive moves the best spilled entries back into the ranked heap (at
// most max of them), keeping the rest — in the slab and in any spill
// segments — in sorted order behind a refreshed boundary. The refilled
// heap opens a fresh window (keep = max), so the floor is back on once it
// is full. A deferred record ranks like a spilled entry at its key:
// peekBest expands it instead of reviving when its key exceeds the best
// spilled entry, and before handing out a revived entry below it. Revival
// is a k-way selection over the sorted slab and the sorted segment
// streams; (score, ranks) keys are unique, so the merge emits exactly the
// order a global in-memory sort would.
func (b *sessionBuffer) revive() {
	if b.err != nil {
		return
	}
	m := b.spillCount()
	if m == 0 {
		return
	}
	take := min(m, b.max)
	if b.tracer != nil {
		b.tracer.TraceBuffer(TraceActionRevive, take)
	}
	n := b.arena.n
	idx := sortedSpillIndex(b.spillScores, b.spillRanks, n)
	cursor := 0
	for pushed := 0; pushed < take; pushed++ {
		head := int32(-1)
		if cursor < len(idx) {
			head = idx[cursor]
		}
		score, ranks, fromSeg, err := b.bestSpilled(head)
		if err != nil {
			b.err = err
			return
		}
		b.heap.Push(combRef{slot: b.arena.alloc(ranks), score: score})
		if fromSeg != nil {
			fromSeg.loaded = false
		} else {
			cursor++
		}
	}
	b.tier.compact()
	b.keep = b.max
	rest := idx[cursor:]
	scores := make([]float64, 0, len(rest))
	ranks := make([]int32, 0, len(rest)*n)
	for _, i := range rest {
		scores = append(scores, b.spillScores[i])
		ranks = append(ranks, b.slabRanks(i)...)
	}
	b.spillScores = scores
	b.spillRanks = ranks
	b.refreshBoundary()
}

// bestSpilled returns the best unconsumed spilled entry across the slab's
// best entry (slab entry head, or none when head < 0) and every segment
// head, without consuming it: the caller pops the winner (advance its
// slab cursor or clear seg.loaded). The returned ranks alias either the
// slab or the segment's head buffer and must be copied (arena.alloc and
// setBoundary do) before the next call.
func (b *sessionBuffer) bestSpilled(head int32) (float64, []int32, *spillSegment, error) {
	have := head >= 0
	var bestScore float64
	var bestRanks []int32
	var fromSeg *spillSegment
	if have {
		bestScore, bestRanks = b.spillScores[head], b.slabRanks(head)
	}
	for _, s := range b.tier.segs {
		ok, err := b.tier.ensureHead(s)
		if err != nil {
			return 0, nil, nil, err
		}
		if !ok {
			continue
		}
		if !have || s.head > bestScore || (s.head == bestScore && lexLess32(s.headRanks, bestRanks)) {
			bestScore, bestRanks, fromSeg, have = s.head, s.headRanks, s, true
		}
	}
	if !have {
		return 0, nil, nil, fmt.Errorf("core: spill accounting lost entries")
	}
	return bestScore, bestRanks, fromSeg, nil
}

// refreshBoundary recomputes the spill boundary as the best remaining
// spilled entry — the head of the compacted, sorted slab or of a segment
// — or clears it when nothing remains spilled.
func (b *sessionBuffer) refreshBoundary() {
	if b.spillCount() == 0 {
		b.hasBoundary = false
		return
	}
	head := int32(-1)
	if len(b.spillScores) > 0 {
		head = 0
	}
	score, ranks, _, err := b.bestSpilled(head)
	if err != nil {
		b.err = err
		return
	}
	b.setBoundary(score, ranks)
}

// Iterator is the pipelined form of the ProxRJ operator: instead of a
// fixed top-K it emits result combinations one at a time, each as soon as
// the bound certifies that no unseen combination can outrank it. This is
// the operator semantics of HRJN (rank join as a physical operator inside
// a pipeline) applied to proximity rank join; downstream consumers can
// stop pulling at any time, having paid I/O only for the prefix they
// consumed.
//
// Unbounded, the iterator retains every formed combination that has not
// been emitted yet (any of them may eventually surface), in compact
// arena-backed rank form. Options.MaxBuffered bounds that retention, and
// Options.SpillDir says whether the bounded session keeps what it does
// not retain (see sessionBuffer).
//
// A session ends in Close, whenever its consumer decides it is over; what
// the session holds outside the heap — spill segments, the sources'
// connections and traversal queues — is let go there and nowhere else.
type Iterator struct {
	e       *Engine
	buf     *sessionBuffer
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
// session with MaxBuffered > 0 and no SpillDir — has taken MaxBuffered
// results, emitted and drained together: its buffer dropped what ranks
// below them, so a further result could be wrong. A session that must
// enumerate past the bound leaves MaxBuffered 0 or gives it a SpillDir.
var ErrIteratorPastBound = errors.New("core: iterator: bounded consumer has taken MaxBuffered results")

// errIteratorClosed is what Next returns after Close.
var errIteratorClosed = fmt.Errorf("core: iterator: %w", os.ErrClosed)

// NewIterator builds a pipelined proximity rank join operator. Options.K
// is ignored (results stream indefinitely); all other options behave as in
// NewEngine. The iterator owns the sources from here on: Close closes them.
func NewIterator(sources []relation.Source, opts Options) (*Iterator, error) {
	bufMax := opts.MaxBuffered
	opts.K = 1 // engine validation only; the iterator manages its own buffer
	e, err := NewEngine(sources, opts)
	if err != nil {
		return nil, err
	}
	it := &Iterator{
		e:   e,
		buf: newSessionBuffer(e.arena, bufMax, &e.stats),
	}
	it.buf.tracer = opts.Tracer
	if bufMax > 0 && opts.SpillDir != "" {
		e.cuts = newCutHeap(e.n)
		it.buf.cuts, it.buf.expand = e.cuts, e.expandCut
		it.buf.tier = newSpillTier(opts.SpillDir, e.arena.n, opts.SpillMemBytes, &e.stats, opts.spillFault)
	}
	// Reroute formed combinations into the session buffer.
	e.sink = it.buf
	return it, nil
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
		best, ok := it.buf.peekBest()
		if it.buf.err != nil {
			// A spill tier failure (write or revival) forfeits exactness;
			// poison the iterator rather than emit a possibly wrong order.
			it.err = it.buf.err
			return Combination{}, it.err
		}
		if ok && best.score >= it.e.t-it.e.opts.Epsilon-1e-9 {
			return it.emitBest(), nil
		}
		if it.done {
			// Bound is −inf once everything is exhausted; flush the buffer.
			if _, ok := it.buf.peekBest(); ok {
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

// emitBest pops, materializes, and recycles the best buffered
// combination; callers must have checked the buffer is non-empty.
func (it *Iterator) emitBest() Combination {
	ref, _ := it.buf.popBest()
	c := it.e.materialize(ref)
	it.e.arena.release(ref.slot)
	it.emitted++
	return c
}

// pastBound reports whether a bounded consumer — a bounded buffer without
// a spill tier — has taken all it may.
func (it *Iterator) pastBound() bool {
	return it.buf.max > 0 && it.buf.tier == nil && it.emitted >= int64(it.buf.max)
}

// DrainBest pops the best buffered combination without certifying it
// against the bound. After ErrIteratorDNF this yields the engine's
// best-effort tail in the same order a capped batch run reports: the
// buffer holds the best formed-but-unemitted combinations, so emitted
// results plus the drain reproduce the batch top-K exactly. A bounded
// consumer's drain stops where its Next would fail with
// ErrIteratorPastBound.
func (it *Iterator) DrainBest() (Combination, bool) {
	if it.pastBound() {
		return Combination{}, false
	}
	if _, ok := it.buf.peekBest(); !ok || it.buf.err != nil {
		return Combination{}, false
	}
	return it.emitBest(), true
}

// Close ends the session: it discards the spill tier's segments, then
// closes every source that implements relation.Closer. Idempotent, and
// clean after any terminal state, an I/O-poisoned one included. Afterwards
// Next fails with an error wrapping os.ErrClosed and DrainBest yields
// nothing; Stats, Threshold and Emitted keep their last values.
func (it *Iterator) Close() {
	if it.err == errIteratorClosed {
		return
	}
	it.err, it.buf.err = errIteratorClosed, errIteratorClosed
	if it.buf.tier != nil {
		it.buf.tier.discard()
	}
	for _, rs := range it.e.rels {
		if c, ok := rs.src.(relation.Closer); ok {
			c.Close()
		}
	}
}

// Buffered returns the number of scored combinations awaiting emission;
// a spill session's deferred records count once emission expands them.
func (it *Iterator) Buffered() int { return it.buf.buffered() }

// Emitted returns how many combinations have been produced so far.
func (it *Iterator) Emitted() int64 { return it.emitted }

// Stats exposes the cost metrics accumulated so far.
func (it *Iterator) Stats() Stats { return it.e.stats }

// Threshold returns the current upper bound on unemitted, unseen
// combinations.
func (it *Iterator) Threshold() float64 { return it.e.t }

// NaiveStream is the oracle for Iterator tests: the fully sorted cross
// product.
func NaiveStream(rels []*relation.Relation, q vec.Vector, fn agg.Function) ([]Combination, error) {
	total := 1
	for _, r := range rels {
		total *= r.Len()
		if total > 1<<22 {
			return nil, fmt.Errorf("core: cross product too large for NaiveStream")
		}
	}
	return Naive(rels, q, fn, total)
}
