package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/pqueue"
	"repro/internal/relation"
	"repro/internal/vec"
)

var negInf = math.Inf(-1)
var posInf = math.Inf(1)

// prefixCap is the initial capacity of the per-relation prefix slices, so
// the first few dozen pulls never reallocate them.
const prefixCap = 64

// relState is the engine-side view of one input relation: the extracted
// prefix P_i plus the first/last access statistics the bounds consume.
type relState struct {
	index     int
	src       relation.Source
	tuples    []relation.Tuple // P_i in access order
	exhausted bool
	// first and last are the squared distances from q of R_i[1] and
	// R_i[p_i], the keys a distance stream ordered them by, 0 before the
	// first pull (paper convention): the only distances the bounds read.
	first, last float64
	// maxTerm is w_s·T(σ_max) (agg.EuclideanSum.ScoreTerm); firstTerm and
	// lastTerm are w_s·T of σ(R_i[1]) and σ(R_i[p_i]), maxTerm before the
	// first pull (the best any unseen tuple could have): the only score
	// terms the bounds read, each transformed once.
	maxTerm, firstTerm, lastTerm float64
	// solo holds each prefix tuple's term (agg.EuclideanSum.SoloBound at
	// its score and squared distance: the exact float every score of the
	// tuple adds before subtracting its centroid term), parallel to tuples;
	// the block kernel reads it too. soloMax is its running maximum.
	// bySolo is a max-heap of the prefix ranks by descending solo, then
	// ascending rank, read in that order (walk): the order in which a
	// pruned level's survivors form a prefix (see candidates). All three
	// drive score-floor pruning during formation and the score-access tight
	// bound's walk (tightScoreBounder.extend), so every engine keeps them,
	// pruned or not.
	solo    []float64
	soloMax float64
	bySolo  []int32
	// front is the frontier of the current walk; cands is the relation's
	// candidate list while formation descends into it (see candidates).
	front []int32
	cands []int32
}

// prefixCols is a session's relation states and the slab their tuple
// columns were first carved from: the one record Close hands to colPool,
// so the next session reuses the columns at the capacity they grew to.
type prefixCols struct {
	rels []*relState
	slab []relation.Tuple
}

var colPool sync.Pool

// maxRecycledDepth bounds the prefixes whose columns colPool keeps. A
// pool should hold entries of about one size: deeper columns (an open
// session thousands of results in; the deepest K = 20 score-access query
// of the benchmark reads about 1 740) are left to the collector.
const maxRecycledDepth = 2048

// recycle hands a closed session's columns to colPool; the engine reads
// no prefix afterwards. Tuples are zeroed, so none — vector, ID, mapped
// relfile bytes — outlives its session, and the sources are dropped; the
// slab is zeroed too, since a segment a column outgrew shares its array
// with the neighbouring columns.
func (e *Engine) recycle() {
	keep := true
	clear(e.cols.slab)
	for _, rs := range e.rels {
		keep = keep && rs.depth() <= maxRecycledDepth
		clear(rs.tuples)
		*rs = relState{tuples: rs.tuples[:0], solo: rs.solo[:0], bySolo: rs.bySolo[:0],
			front: rs.front, cands: rs.cands}
	}
	if keep {
		colPool.Put(e.cols)
	}
	e.cols, e.rels = nil, nil
}

// pushSolo adds the newest rank to the bySolo heap. It is the largest
// rank so far, so it rises past strictly smaller solos only and stays
// behind every rank of at least its solo.
func (rs *relState) pushSolo() {
	rs.bySolo = append(rs.bySolo, int32(len(rs.solo)-1))
	pqueue.SiftUp(rs.bySolo, rs.rankBefore)
}

// walk starts a read of bySolo in its order, the m-th rank for O(log m)
// at any depth: the frontier holds the positions whose parents were read,
// itself a heap under the same order. The next walk starts afresh.
func (rs *relState) walk() { rs.front = append(rs.front[:0], 0) }

// next returns the walk's next rank, false once bySolo is read out; the
// position read gives its slot to its first child and pushes its second.
func (rs *relState) next() (int32, bool) {
	f, h := rs.front, rs.bySolo
	if len(f) == 0 || len(h) == 0 {
		return 0, false
	}
	top := f[0]
	if c := 2*top + 1; int(c) < len(h) {
		f[0] = c
	} else {
		f[0], f = f[len(f)-1], f[:len(f)-1]
	}
	pqueue.SiftDown(f, rs.frontBefore)
	if c := 2*top + 2; int(c) < len(h) {
		f = append(f, c)
		pqueue.SiftUp(f, rs.frontBefore)
	}
	rs.front = f
	return h[top], true
}

// rankBefore is bySolo's order: solo descending, then rank ascending.
func (rs *relState) rankBefore(a, b int32) bool {
	return rs.solo[a] > rs.solo[b] || rs.solo[a] == rs.solo[b] && a < b
}

// frontBefore orders a walk's frontier: heap positions by their ranks.
func (rs *relState) frontBefore(p, q int32) bool { return rs.rankBefore(rs.bySolo[p], rs.bySolo[q]) }

// depth returns p_i.
func (r *relState) depth() int { return len(r.tuples) }

// bounder is the BS component of the ProxRJ template: registration
// integrates a new tuple or an exhaustion, threshold reads the bound they
// leave.
type bounder interface {
	// register integrates the tuple just appended to relation ri.
	register(ri int)
	// registerExhausted reacts to relation ri running dry.
	registerExhausted(ri int)
	// threshold computes the current upper bound t on unseen combinations.
	threshold() float64
	// potential returns pot_i for the PA strategy (−inf when no unseen
	// combination can involve relation ri).
	potential(ri int) float64
}

// puller is the PS component.
type puller interface {
	// choose returns the index of a non-exhausted relation, or -1 when all
	// are exhausted.
	choose(e *Engine) int
}

// Engine executes the ProxRJ template over a fixed set of sources.
type Engine struct {
	opts  Options
	q     vec.Vector
	n     int
	dim   int
	kind  relation.AccessKind
	rels  []*relState
	cols  *prefixCols // the record rels live in, for recycle
	arena *combArena
	// buf is the output buffer O of Algorithm 1, which every formed
	// combination is offered to: a bounded consumer of K entries in a batch
	// run, the session's buffer when an Iterator drives the engine.
	buf   *sessionBuffer
	bound bounder
	pull  puller
	stats Stats
	t     float64 // current upper bound
	// prune turns score-floor pruning on. blockSize > 0 turns the batched
	// kernel on: the innermost enumeration level scores candidate blocks of
	// that width in one kernel call over the columnar solo/vector state
	// instead of one leaf at a time. Both are on in every run but the
	// identity suites' oracles (Options.disablePrune, disableBlock).
	prune     bool
	blockSize int
	lastVar   int // innermost non-pulled level of the current formation
	// exp is the deferred record expandCut is re-forming while expanding
	// is set.
	exp       deferredCut
	expanding bool
	// Formation scratch, reused across every formCombinations call.
	scrRanks  []int32
	scrSigmas []float64
	scrSolos  []float64 // the fixed slots' solo terms, the block kernel's qterms
	scrXs     []vec.Vector
	scrMu     vec.Vector
	// levelMax[i] is the largest solo term level i can place: soloMax, or
	// the pulled tuple's solo at its own level (see reach).
	levelMax []float64
	sufCount []int64 // sufCount[i]: Π depth over levels ≥ i (skip excluded)
	// Block-mode scratch: the kernel's working storage and the per-block
	// column/output buffers.
	blkScr agg.BlockScratch
	blkQ   []float64
	blkXs  []vec.Vector
	blkOut []float64
	// Emission arenas: materialize carves public Combination slices from
	// these in chunks instead of allocating two slices per result.
	matTuples []relation.Tuple
	matRanks  []int
}

// NewEngine validates the configuration and builds an engine. All sources
// must share one access kind and one dimensionality matching the query.
func NewEngine(sources []relation.Source, opts Options) (*Engine, error) {
	return newEngine(sources, opts, false)
}

// newEngine is NewEngine for a batch run or, when session is set, for an
// Iterator: a session has no K, and its buffer follows from MaxBuffered
// and SpillDir (sessionWindow).
func newEngine(sources []relation.Source, opts Options, session bool) (*Engine, error) {
	if len(sources) < 2 {
		return nil, ErrNoRelations
	}
	if !session && opts.K < 1 {
		return nil, ErrBadK
	}
	if opts.Agg == nil {
		return nil, ErrNilAggregator
	}
	if opts.Epsilon < 0 || math.IsNaN(opts.Epsilon) {
		return nil, fmt.Errorf("core: Epsilon must be non-negative, got %v", opts.Epsilon)
	}
	if opts.MaxBuffered < 0 {
		return nil, fmt.Errorf("core: MaxBuffered must be non-negative, got %d", opts.MaxBuffered)
	}
	if opts.SpillMemBytes < 0 {
		return nil, fmt.Errorf("core: SpillMemBytes must be non-negative, got %d", opts.SpillMemBytes)
	}
	kind := sources[0].Kind()
	dim := sources[0].Relation().Dim()
	if opts.Query.Dim() != dim {
		return nil, fmt.Errorf("%w: query dim %d, relations dim %d", ErrDimMismatch, opts.Query.Dim(), dim)
	}
	for _, s := range sources[1:] {
		if s.Kind() != kind {
			return nil, ErrMixedAccess
		}
		if s.Relation().Dim() != dim {
			return nil, fmt.Errorf("%w: relation %q has dim %d, want %d",
				ErrDimMismatch, s.Relation().Name, s.Relation().Dim(), dim)
		}
	}
	// The scratch slab layout below depends on whether block scoring's test
	// switch is thrown.
	blockSize := 0
	if !opts.disableBlock {
		blockSize = DefaultBlockSize
		if opts.blockSize > 0 {
			blockSize = opts.blockSize
		}
	}

	// A session reuses a closed one's columns (Engine.recycle) if it can.
	n := len(sources)
	var cols *prefixCols
	if session {
		if c, _ := colPool.Get().(*prefixCols); c != nil && len(c.rels) == n {
			cols = c
		}
	}
	e := &Engine{
		opts:      opts,
		q:         opts.Query.Clone(),
		n:         n,
		dim:       dim,
		kind:      kind,
		arena:     newCombArena(n),
		t:         posInf,
		prune:     !opts.disablePrune,
		blockSize: blockSize,
		sufCount:  make([]int64, n+1),
	}
	e.stats.Depths = make([]int, n)

	// colCap is the initial capacity of relation i's prefix columns.
	colCap := func(i int) int {
		c := prefixCap
		if l := sources[i].Relation().Len(); l < c {
			c = l
		}
		return c
	}
	colTotal := 0
	if cols == nil {
		for i := range sources {
			colTotal += colCap(i)
		}
	}

	// Every float64 the engine owns — formation scratch, block-kernel
	// lanes, and the per-relation solo columns — is carved from one
	// slab, so construction costs one allocation instead of one per
	// buffer. Columns take zero-length full-capacity views (the
	// three-index slices below), so an append that outgrows its segment
	// relocates that column without touching its neighbors.
	nf := 3*n + dim + colTotal
	if blockSize > 0 {
		nf += 2 * blockSize
	}
	floats := make([]float64, nf)
	takeN := func(k int) []float64 { s := floats[:k:k]; floats = floats[k:]; return s }
	takeCol := func(c int) []float64 { s := floats[:0:c]; floats = floats[c:]; return s }
	e.scrSigmas = takeN(n)
	e.scrSolos = takeN(n)
	e.levelMax = takeN(n)
	e.scrMu = vec.Vector(takeN(dim))

	// Vector-view scratch shares one backing array the same way, and
	// scrRanks shares its int32 slab with the per-relation bySolo heaps,
	// walk frontiers and candidate lists (all growable column views).
	nv := n + blockSize
	vecs := make([]vec.Vector, nv)
	e.scrXs = vecs[:n:n]
	i32 := make([]int32, n+3*colTotal)
	takeRanks := func(c int) []int32 { s := i32[:0:c]; i32 = i32[c:]; return s }
	e.scrRanks = takeRanks(n)[:n]

	if blockSize > 0 {
		e.blkQ = takeN(blockSize)
		e.blkOut = takeN(blockSize)
		e.blkXs = vecs[n : n+blockSize : n+blockSize]
		// Pre-size the kernel scratch to the full block width: the widths
		// ScoreBlock sees grow with the candidate lists, and regrowing
		// lane buffers mid-run would allocate on the hot path.
		e.blkScr.Ensure(dim, blockSize)
	}

	// Fresh relation states live in one backing array and their tuple
	// columns in one slab; the other columns come from the slabs above.
	if cols == nil {
		cols = &prefixCols{rels: make([]*relState, n), slab: make([]relation.Tuple, colTotal)}
		states, tupSlab := make([]relState, n), cols.slab
		for i := range states {
			c := colCap(i)
			rs := &states[i]
			rs.tuples, tupSlab = tupSlab[:0:c], tupSlab[c:]
			rs.solo = takeCol(c)
			rs.bySolo, rs.front, rs.cands = takeRanks(c), takeRanks(c), takeRanks(c)
			cols.rels[i] = rs
		}
	}
	e.cols, e.rels = cols, cols.rels
	for i, s := range sources {
		rs := e.rels[i]
		rs.index, rs.src = i, s
		rs.maxTerm = opts.Agg.ScoreTerm(s.Relation().MaxScore)
		rs.firstTerm, rs.lastTerm = rs.maxTerm, rs.maxTerm
	}

	switch {
	case opts.Algorithm.Bound() != TightBound:
		e.bound = newCornerBounder(e)
	case kind == relation.DistanceAccess:
		e.bound = newTightDistBounder(e)
	default:
		e.bound = newTightScoreBounder(e)
	}
	if opts.Algorithm.Pull() == PotentialAdaptive {
		e.pull = &potentialAdaptive{}
	} else {
		e.pull = &roundRobin{}
	}
	if session {
		e.buf = sessionWindow(e)
	} else {
		e.buf = newSessionBuffer(e.arena, opts.K, &e.stats, nil)
	}
	return e, nil
}

// Run executes Algorithm 1 to completion and returns the top-K result.
func (e *Engine) Run() (Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the loop checks ctx
// between pulls and aborts with a wrapped ctx.Err() as soon as the
// deadline passes or the context is canceled. A canceled run returns no
// partial result — callers that want progress under a budget should use
// MaxSumDepths/MaxCombinations instead, which end with a DNF result.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	start := time.Now()
	dnf := false
	for {
		if done := e.satisfied(); done {
			break
		}
		if e.capped() {
			dnf = true
			break
		}
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("core: run canceled after %d accesses: %w", e.stats.SumDepths, err)
		}
		ri := e.pull.choose(e)
		if ri < 0 {
			break // all exhausted: everything has been seen
		}
		if err := e.step(ri); err != nil {
			return Result{}, err
		}
	}
	e.stats.TotalTime = time.Since(start)
	// The drain pops O best-first, carved from one chunk of emission arena.
	held := e.buf.buffered()
	e.matTuples = make([]relation.Tuple, 0, held*e.n)
	e.matRanks = make([]int, 0, held*e.n)
	combs := make([]Combination, held)
	for i := range combs {
		combs[i], _ = e.emit()
	}
	return Result{
		Combinations: combs,
		Threshold:    e.t,
		DNF:          dnf,
		Stats:        e.stats,
	}, nil
}

// materialize converts an arena-backed ref into a public Combination,
// reconstructing tuples from the relation prefixes (rank r of relation i
// is always rels[i].tuples[r] — prefixes only ever grow).
//
// The emitted slices are carved from chunked backing arrays (capacity-
// capped views, so callers appending to a Combination cannot clobber a
// neighbor) instead of two allocations per emission: a batch drain of K
// results costs two chunk allocations (RunContext sizes them), and a
// long-lived iterator pays two per matChunk emissions. A full chunk is
// abandoned to the garbage collector once every Combination carved from
// it is dropped; one retained Combination keeps at most matChunk·n
// entries alive.
func (e *Engine) materialize(ref combRef) Combination {
	const matChunk = 16
	rank32 := e.arena.ranksAt(ref.slot)
	if len(e.matTuples)+e.n > cap(e.matTuples) {
		c := matChunk * e.n
		e.matTuples = make([]relation.Tuple, 0, c)
		e.matRanks = make([]int, 0, c)
	}
	mt, mr := len(e.matTuples), len(e.matRanks)
	for i, r := range rank32 {
		e.matTuples = append(e.matTuples, e.rels[i].tuples[r])
		e.matRanks = append(e.matRanks, int(r))
	}
	tuples := e.matTuples[mt : mt+e.n : mt+e.n]
	ranks := e.matRanks[mr : mr+e.n : mr+e.n]
	return Combination{Tuples: tuples, Ranks: ranks, Score: ref.score}
}

// emit pops the best buffered combination, materializes it, and recycles
// its arena slot.
func (e *Engine) emit() (Combination, bool) {
	ref, ok := e.buf.popBest()
	if !ok {
		return Combination{}, false
	}
	c := e.materialize(ref)
	e.arena.release(ref.slot)
	return c, true
}

// satisfied implements the stopping test of Algorithm 1 line 3: the buffer
// holds K combinations whose worst score — its floor — is certified.
func (e *Engine) satisfied() bool {
	kth, full := e.buf.floor()
	return full && e.certifies(kth)
}

// certifies is the one emission test of runs and sessions: score is at
// least the bound less the approximation slack ε. No absolute term: a
// fixed one forgives nothing at large magnitudes, everything at small.
func (e *Engine) certifies(score float64) bool { return score >= e.t-e.opts.Epsilon }

func (e *Engine) capped() bool {
	if e.opts.MaxSumDepths > 0 && e.stats.SumDepths >= e.opts.MaxSumDepths {
		return true
	}
	if e.opts.MaxCombinations > 0 && e.stats.CombinationsFormed >= e.opts.MaxCombinations {
		return true
	}
	return false
}

// step pulls one tuple from relation ri, forms the new combinations, and
// updates the bound (Algorithm 1 lines 5-9). The wall-clock sampling of
// the bound components only runs under Options.CollectTimings, so the
// default hot path pays no timer calls per pull.
func (e *Engine) step(ri int) error {
	rs := e.rels[ri]
	var pStart time.Time
	if e.opts.Tracer != nil {
		pStart = time.Now()
	}
	tup, err := rs.src.Next()
	if errors.Is(err, relation.ErrExhausted) {
		rs.exhausted = true
		var bStart time.Time
		if e.opts.CollectTimings {
			bStart = time.Now()
		}
		e.bound.registerExhausted(ri)
		e.t = e.bound.threshold()
		if e.opts.CollectTimings {
			e.stats.BoundTime += time.Since(bStart)
		}
		if e.opts.Tracer != nil {
			e.opts.Tracer.TraceBound(e.stats.SumDepths, e.t)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: access to relation %d (%s): %w", ri, rs.src.Relation().Name, err)
	}
	e.stats.Depths[ri]++
	e.stats.SumDepths++

	// d2 is the prefix statistic the bounders read; solo is the term
	// every combination of the tuple adds, from its score term, which the
	// bounders read too.
	d2 := tup.Vec.Dist2(e.q)
	term := e.opts.Agg.ScoreTerm(tup.Score)
	solo := e.opts.Agg.Solo(term, d2)

	e.formCombinations(ri, tup, solo)

	rs.tuples = append(rs.tuples, tup)
	if len(rs.tuples) == 1 {
		rs.first, rs.firstTerm = d2, term
	}
	rs.last, rs.lastTerm = d2, term
	rs.solo = append(rs.solo, solo)
	rs.pushSolo()
	if len(rs.solo) == 1 || solo > rs.soloMax {
		rs.soloMax = solo
	}

	var bStart time.Time
	if e.opts.CollectTimings {
		bStart = time.Now()
	}
	e.bound.register(ri)
	e.t = e.bound.threshold()
	e.stats.BoundUpdates++
	if e.opts.CollectTimings {
		e.stats.BoundTime += time.Since(bStart)
	}
	if tr := e.opts.Tracer; tr != nil {
		tr.TracePull(ri, rs.depth(), time.Since(pStart))
		tr.TraceBound(e.stats.SumDepths, e.t)
	}
	return nil
}

// formCombinations enumerates P_1 × … × {τ} × … × P_n and offers each
// member to the output buffer (Algorithm 1 lines 6-7). The whole product
// counts into Stats.CombinationsFormed up front, so the paper's cost
// metric and the MaxCombinations cap semantics are unchanged by pruning:
// subtrees whose best possible completion (their tuples' solo terms,
// folded as a score adds them, see reach) cannot reach the buffer's score
// floor are cut before materialization and tallied again in
// CombinationsPruned.
func (e *Engine) formCombinations(ri int, tup relation.Tuple, solo float64) {
	for _, rs := range e.rels {
		if rs.index != ri && rs.depth() == 0 {
			return
		}
	}
	// The new tuple occupies its slot at every leaf; its rank is the depth
	// before append.
	e.scrRanks[ri] = int32(e.rels[ri].depth())
	e.scrSigmas[ri] = tup.Score
	e.scrXs[ri] = tup.Vec
	e.scrSolos[ri] = solo
	e.setLastVar(ri)
	// Each level's best solo term, and the number of leaves below each
	// level.
	sc := int64(1)
	e.levelMax[ri] = solo
	e.sufCount[e.n] = 1
	for i := e.n - 1; i >= 0; i-- {
		if i != ri {
			// Saturate: wide joins over deep prefixes can push the leaf
			// count past int64 (pruning is what makes that regime reachable
			// at all), and a wrapped count would corrupt CombinationsFormed
			// and defeat the MaxCombinations cap.
			sc = satMul(sc, int64(e.rels[i].depth()))
			e.levelMax[i] = e.rels[i].soloMax
		}
		e.sufCount[i] = sc
	}
	e.stats.CombinationsFormed = satAdd(e.stats.CombinationsFormed, sc)
	e.enumerate(0, ri, 0)
}

// setLastVar records the innermost level that varies when ri is the
// pulled slot (which never does): where the batched kernel takes over from
// the recursion.
func (e *Engine) setLastVar(ri int) {
	e.lastVar = e.n - 1
	if e.lastVar == ri {
		e.lastVar--
	}
}

// place fixes level i of the formation scratch to rank r.
func (e *Engine) place(i int, r int32) {
	rs := e.rels[i]
	e.scrRanks[i] = r
	e.scrSigmas[i] = rs.tuples[r].Score
	e.scrXs[i] = rs.tuples[r].Vec
	e.scrSolos[i] = rs.solo[r]
}

// satAdd adds counter deltas with saturation at MaxInt64, matching the
// saturated suffix counts.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// satMul multiplies non-negative counts with the same saturation, so
// satAdd(x, satMul(c, d)) equals c repeated satAdd(·, d)s.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// reach is the best score a member of level i's candidate can attain:
// v, the fold of the outer levels' solo terms and the candidate's, then
// each inner level's levelMax added in level order. That is the order
// ScoreScratch and ScoreBlock add the slot terms in, from 0, and each
// slot term is its solo term less a centroid term, so, fl(a − b) ≤ a for
// b ≥ 0 and rounded addition being monotone in each operand, no member
// scores above its reach, bit for bit.
func (e *Engine) reach(i int, v float64) float64 {
	for _, m := range e.levelMax[i+1:] {
		v += m
	}
	return v
}

// candidates returns, in rank order, the ranks of level i that formation
// descends into below the folded solo terms of the outer levels, partial.
// Without a score floor that is the whole prefix. With one it is the ranks
// r whose reach(i, partial + solo[r]) is at least the floor; reach is
// monotone in solo[r], so walking bySolo (descending solo) and stopping
// at the first failure finds exactly the set a scan of the prefix would,
// at O(log) per survivor instead of the depth. Everything
// behind the stop is the cut: charged to CombinationsPruned in one step,
// then dropped, or kept as one deferredCut when the buffer has a cuts
// store (an open session). This is the only place a tail is cut. The
// floor is read once per call: offers made while the returned list is
// being consumed do not refresh it. While expandCut replays a record, the list is the record's
// instead (see expansion).
func (e *Engine) candidates(i, skip int, partial float64) []int32 {
	if e.expanding {
		return e.expansion(i, partial)
	}
	rs := e.rels[i]
	out := rs.cands[:0]
	floor, pruned := negInf, false
	if e.prune {
		floor, pruned = e.buf.floor()
	}
	if pruned {
		rs.walk()
		for r, ok := rs.next(); ok; r, ok = rs.next() {
			if e.reach(i, partial+rs.solo[r]) < floor {
				break
			}
			out = append(out, r)
		}
		if cut := len(rs.bySolo) - len(out); cut > 0 {
			e.stats.CombinationsPruned = satAdd(e.stats.CombinationsPruned, satMul(int64(cut), e.sufCount[i+1]))
			if e.buf.cuts != nil {
				e.deferCut(deferredCut{key: floor, partial: partial, level: int32(i), skip: int32(skip)})
			}
		}
		slices.Sort(out)
	} else {
		for r := range rs.tuples {
			out = append(out, int32(r))
		}
	}
	rs.cands = out // keep any growth for the next formation
	return out
}

// deferCut stores c with its payload: the fixed ranks of the outer levels
// and the pulled slot, and the prefix depths of the cut level and every
// level inside it. O(n), nothing enumerated.
func (e *Engine) deferCut(c deferredCut) {
	cuts := e.buf.cuts
	p := cuts.scr
	copy(p, e.scrRanks)
	for j := int(c.level); j < e.n; j++ {
		p[e.n+j] = int32(e.rels[j].depth())
	}
	c.slot = cuts.arena.alloc(p)
	cuts.heap.Push(c)
}

// expandCut re-forms a deferred record's members through the formation
// path — the same fixed slots, the same block level, so the same scores
// bit for bit — and offers each to the buffer. The members were counted in
// CombinationsFormed when the record was cut, so nothing is counted here.
// The inner levels' levelMax is recomputed from the recorded depths: a
// solo column only grows, so the maximum of its first depth terms is the
// soloMax the cut read.
func (e *Engine) expandCut(c deferredCut) {
	p := e.buf.cuts.arena.ranksAt(c.slot)
	for j := 0; j < int(c.level); j++ {
		e.place(j, p[j])
	}
	e.place(int(c.skip), p[c.skip])
	for j := int(c.level) + 1; j < e.n; j++ {
		if j != int(c.skip) {
			e.levelMax[j] = slices.Max(e.rels[j].solo[:p[e.n+j]])
		}
	}
	e.levelMax[c.skip] = e.scrSolos[c.skip]
	e.setLastVar(int(c.skip))
	e.exp, e.expanding = c, true
	e.enumerate(int(c.level), int(c.skip), c.partial)
	e.expanding = false
	e.buf.cuts.arena.release(c.slot)
}

// expansion is candidates while e.exp is being re-formed: at the cut level
// the ranks below the recorded depth that fail the recorded test — the
// cut, recomputed from the same operands — and at every inner level its
// whole prefix as deep as it was at cut time.
func (e *Engine) expansion(i int, partial float64) []int32 {
	c, rs := &e.exp, e.rels[i]
	depth := e.buf.cuts.arena.ranksAt(c.slot)[e.n+i]
	out := rs.cands[:0]
	for r := int32(0); r < depth; r++ {
		if i != int(c.level) || e.reach(i, partial+rs.solo[r]) < c.key {
			out = append(out, r)
		}
	}
	rs.cands = out
	return out
}

// enumerate recurses over relation levels, carrying partial: the solo
// terms of the tuples fixed at levels before i, folded from 0 in level
// order, the pulled tuple's at its own level.
func (e *Engine) enumerate(i, skip int, partial float64) {
	if i == e.n {
		e.buf.offer(e.opts.Agg.ScoreScratch(e.q, e.scrSigmas, e.scrXs, e.scrMu), e.scrRanks)
		return
	}
	if i == skip {
		e.enumerate(i+1, skip, partial+e.scrSolos[skip])
		return
	}
	rs := e.rels[i]
	cands := e.candidates(i, skip, partial)
	if e.blockSize > 0 && i == e.lastVar {
		e.scoreBlocks(i, cands)
		return
	}
	for _, r := range cands {
		e.place(i, r)
		e.enumerate(i+1, skip, partial+rs.solo[r])
	}
}

// scoreBlocks replaces the innermost varying level of the recursion with
// batched kernel calls: the level's candidates are scored blockSize at a
// time and offered in rank order. Same offers, same bits as the scalar
// level.
func (e *Engine) scoreBlocks(i int, cands []int32) {
	rs := e.rels[i]
	for start := 0; start < len(cands); start += e.blockSize {
		end := start + e.blockSize
		if end > len(cands) {
			end = len(cands)
		}
		chunk := cands[start:end]
		w := len(chunk)
		for j, r := range chunk {
			e.blkQ[j] = rs.solo[r]
			e.blkXs[j] = rs.tuples[r].Vec
		}
		e.opts.Agg.ScoreBlock(e.q, e.scrSolos, e.scrXs, i, e.blkQ[:w], e.blkXs[:w], &e.blkScr, e.blkOut[:w])
		for j, r := range chunk {
			e.scrRanks[i] = r
			e.buf.offer(e.blkOut[j], e.scrRanks)
		}
	}
}

// Threshold returns the current upper bound t (exported for tests and
// diagnostics).
func (e *Engine) Threshold() float64 { return e.t }

// Depth returns the current depth of relation ri.
func (e *Engine) Depth(ri int) int { return e.rels[ri].depth() }

// roundRobin cycles R_1, …, R_n, skipping exhausted relations.
type roundRobin struct {
	next int
}

func (r *roundRobin) choose(e *Engine) int {
	for tries := 0; tries < e.n; tries++ {
		i := r.next % e.n
		r.next++
		if !e.rels[i].exhausted {
			return i
		}
	}
	return -1
}

// potentialAdaptive picks the relation with maximal potential (paper
// §3.3), breaking ties in favor of least depth, then least index.
type potentialAdaptive struct{}

func (p *potentialAdaptive) choose(e *Engine) int {
	best := -1
	bestPot := negInf
	for i, rs := range e.rels {
		if rs.exhausted {
			continue
		}
		pot := e.bound.potential(i)
		switch {
		case best < 0,
			pot > bestPot+potTieEps,
			pot > bestPot-potTieEps && rs.depth() < e.rels[best].depth():
			best = i
			bestPot = pot
		}
	}
	return best
}

// potTieEps treats potentials within this tolerance as tied so that the
// depth/index tie-breakers stay deterministic under floating-point noise.
const potTieEps = 1e-9
