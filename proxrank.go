package proxrank

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/relfile"
	"repro/internal/vec"
)

// Re-exported data model. These aliases are the public names of the
// library's core types; downstream code never imports internal packages.
type (
	// Vector is a point in the feature space R^d.
	Vector = vec.Vector
	// Tuple is one scored, located object of a relation.
	Tuple = relation.Tuple
	// Relation is an immutable input collection with a known maximum score.
	Relation = relation.Relation
	// Source streams a relation in a fixed access order.
	Source = relation.Source
	// AccessKind selects distance-based or score-based sequential access.
	AccessKind = relation.AccessKind
	// Algorithm names a bounding-scheme/pulling-strategy pair.
	Algorithm = core.Algorithm
	// Combination is one join result with its aggregate score.
	Combination = core.Combination
	// Result is the ranked output plus run statistics.
	Result = core.Result
	// Stats carries the cost metrics of a run (sumDepths et al.).
	Stats = core.Stats
	// Weights tunes the aggregation of paper eq. (2).
	Weights = agg.Weights
	// ScoreTransform selects how scores enter the aggregation (ln or id).
	ScoreTransform = agg.ScoreTransform
	// ShardedRelation is a relation partitioned into shards with per-shard
	// indexes built in parallel; queries stream a k-way merge of the shard
	// orders that is byte-identical to the unsharded stream (see
	// NewShardedRelation).
	ShardedRelation = relation.Sharded
	// Input is anything TopKInputs can query: a *Relation or a
	// *ShardedRelation.
	Input = relation.Input
)

// Access kinds.
const (
	DistanceAccess = relation.DistanceAccess
	ScoreAccess    = relation.ScoreAccess
)

// Algorithms.
const (
	// CBRR is the HRJN baseline: corner bound, round-robin pulling.
	CBRR = core.CBRR
	// CBPA is HRJN*: corner bound, potential-adaptive pulling.
	CBPA = core.CBPA
	// TBRR is the tight bound with round-robin pulling (instance-optimal).
	TBRR = core.TBRR
	// TBPA is the tight bound with adaptive pulling (the paper's best).
	TBPA = core.TBPA
)

// ParseAlgorithm maps a case-insensitive name — cbrr (or hrjn), cbpa (or
// hrjn*), tbrr, tbpa — to an Algorithm. The empty string selects TBPA,
// matching the Options default.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "tbpa":
		return TBPA, nil
	case "tbrr":
		return TBRR, nil
	case "cbpa", "hrjn*":
		return CBPA, nil
	case "cbrr", "hrjn":
		return CBRR, nil
	}
	return 0, fmt.Errorf("proxrank: unknown algorithm %q (want cbrr|cbpa|tbrr|tbpa)", s)
}

// PartitionStrategy is the type of the argument NewShardedRelation,
// Catalog.RegisterSharded and Catalog.Replace accept and ignore: every
// partition is grid, size-balanced axis-aligned boxes by recursive median
// cut. It and GridPartition stay only while the benchmark harness still
// passes GridPartition, and leave with the ROADMAP item "`bench/` follows
// the code".
type PartitionStrategy int

// GridPartition is the one PartitionStrategy, a vestige like its type.
const GridPartition PartitionStrategy = 1

// Score transforms.
const (
	// LogScore aggregates w_s·ln σ (paper eq. (2)).
	LogScore = agg.LogScore
	// IdentityScore aggregates w_s·σ (paper Appendix C.2).
	IdentityScore = agg.IdentityScore
)

// Options configure TopK. The zero value plus a positive K is a valid
// configuration: TBPA over distance-based access with unit weights and
// logarithmic scores.
type Options struct {
	// K is the number of results (required, ≥ 1).
	K int
	// Algorithm defaults to TBPA.
	Algorithm Algorithm
	// Access defaults to DistanceAccess.
	Access AccessKind
	// Weights defaults to w_s = w_q = w_µ = 1.
	Weights Weights
	// Transform defaults to LogScore.
	Transform ScoreTransform
	// Epsilon relaxes the stopping test: the run may finish earlier and
	// every returned combination scores within Epsilon of any combination
	// it displaced. 0 means exact top-K.
	Epsilon float64
	// MaxSumDepths and MaxCombinations abort long runs, marking the result
	// DNF (0 = unlimited).
	MaxSumDepths    int
	MaxCombinations int64
	// MaxBuffered is a session's window of formed-but-unemitted
	// combinations held in ranked form: it retains the best MaxBuffered −
	// emitted (at least one), and formation skips whole subtrees below
	// the worst of them. A positive MaxBuffered is a bounded consumer: it
	// drops what it cannot return, and once it has delivered MaxBuffered
	// results (Next and DrainBest together) Next fails with ErrPastBound.
	// The batch TopK* entry points default it to K, which keeps peak
	// memory O(K) with byte-identical results. MaxBuffered 0 is an open
	// session: it enumerates exactly for as long as it is read, keeping in
	// memory what its 1 024-entry window does not hold.
	MaxBuffered int
	// CollectTimings enables the per-pull wall-clock sampling behind
	// Stats.BoundTime. Off by default: the timers measurably tax every
	// pull, and most callers only need Stats.TotalTime (always
	// collected).
	CollectTimings bool
	// Tracer, when non-nil, observes the run at pull granularity — every
	// access with its depth and wall time, every threshold update, every
	// buffer pressure event. The hook behind per-query tracing; nil (the
	// default) costs one pointer check per pull.
	Tracer Tracer
	// SpillDir is ignored: the engine writes no files, and MaxBuffered
	// alone decides whether a session is open. It is a vestige kept until
	// ROADMAP item 18(a), because bench/ sets it.
	SpillDir string
	// SpillMemBytes is ignored, like SpillDir, and kept until ROADMAP
	// item 18(a) for the same reason.
	SpillMemBytes int
}

// Tracer observes one run at pull granularity (see core.Tracer for the
// callback contract).
type Tracer = core.Tracer

// NewRelation validates tuples and builds a relation; maxScore is the
// a-priori maximum score σ_max the bounding schemes rely on.
func NewRelation(name string, maxScore float64, tuples []Tuple) (*Relation, error) {
	return relation.New(name, maxScore, tuples)
}

// OpenSource opens the ordered stream of in for one access kind — by
// increasing Euclidean distance from query, or by decreasing score, where
// query is ignored — for
// TopKFromSources and NewQuerySources. It is safe for concurrent use. A
// plain relation is scanned on every call, its tuples copied into score
// order for score access; a ShardedRelation streams from the columns and
// the R-trees it built once (a shard of dimension 8 and up with at most
// 8 192 tuples scans its columns instead), so a relation queried
// repeatedly is best held as NewShardedRelation(rel, 1).
func OpenSource(in Input, access AccessKind, query Vector) (Source, error) {
	return relation.OpenSource(in, access, query)
}

// NewShardedRelation partitions rel into at most shards size-balanced
// axis-aligned boxes by recursive median cut and builds every shard's
// score order and R-tree in parallel; a shard's rectangle lets a
// distance stream leave the shards far from its query unopened. Any
// PartitionStrategy argument is ignored. The result is immutable and
// safe for concurrent use, and any query over it — TopKInputs,
// NewQueryInputs, or the service layer — returns byte-identical results
// to the unsharded relation, while bounding per-shard index memory and
// enabling parallel builds. A sharded input owns its indexes, so distance
// access over it streams from the shard R-trees; a shard of dimension 8
// and up with at most 8 192 tuples builds none and scans its vectors, as
// a plain relation does. Fewer shards may be returned when some would be
// empty.
func NewShardedRelation(rel *Relation, shards int, _ ...PartitionStrategy) (*ShardedRelation, error) {
	return relation.Partition(rel, shards)
}

// ReadRelationCSV parses a relation from CSV ("id,score,x1,...,xd[,attr...]").
// Pass maxScore 0 to infer it from the data.
func ReadRelationCSV(r io.Reader, name string, maxScore float64) (*Relation, error) {
	return relation.ReadCSV(r, name, maxScore)
}

// WriteRelationCSV serializes a relation to CSV.
func WriteRelationCSV(w io.Writer, rel *Relation) error {
	return relation.WriteCSV(w, rel)
}

// LoadRelationCSV reads a relation from a CSV file.
func LoadRelationCSV(path, name string, maxScore float64) (*Relation, error) {
	return relation.LoadCSVFile(path, name, maxScore)
}

// SaveRelationCSV writes a relation to a CSV file.
func SaveRelationCSV(path string, rel *Relation) error {
	return relation.SaveCSVFile(path, rel)
}

// RelFileExtension is the conventional suffix of relfile relation files
// (".prox"); proxserve and the catalog use it to pick the loader.
const RelFileExtension = relfile.Extension

// SaveRelFile writes a sharded relation to path in the relfile format: a
// versioned, checksummed columnar layout whose per-shard slabs are
// stored in canonical score order, built once and memory-mapped at load.
func SaveRelFile(path string, s *ShardedRelation) error {
	return relfile.Write(path, s)
}

// LoadRelFile memory-maps a relfile relation under the given name. The
// loaded relation copies no tuples onto the heap: score access streams
// the mapped slabs directly, distance access builds per-shard R-trees
// lazily on first use, and shard bounds come stored from the file — so
// queries over it are byte-identical to the in-memory relation it was
// built from while resident memory stays flat in the relation size. The
// mapping stays alive for as long as the relation, or a stream over it,
// is reachable, and is unmapped once the collector finds neither; the
// tuples it produces own their bytes and outlive it.
func LoadRelFile(path, name string) (*ShardedRelation, error) {
	f, err := relfile.Open(path)
	if err != nil {
		return nil, err
	}
	return f.Load(name)
}

// AutoShardCount is the admission heuristic shared by proxgen and the
// service catalog: the shard count picked for a relation of the given
// size when the caller does not fix one (roughly one shard per 8k
// tuples, clamped to [1, 64]).
func AutoShardCount(tuples int) int {
	return relation.AutoShardCount(tuples)
}

func (o Options) aggregation() (*agg.EuclideanSum, error) {
	w := o.Weights
	if w == (Weights{}) {
		w = agg.DefaultWeights()
	}
	return agg.NewEuclideanSum(w, o.Transform)
}

func (o Options) engineOptions(query Vector, fn *agg.EuclideanSum) core.Options {
	return core.Options{
		K:               o.K,
		Algorithm:       o.Algorithm,
		Query:           query,
		Agg:             fn,
		Epsilon:         o.Epsilon,
		MaxSumDepths:    o.MaxSumDepths,
		MaxCombinations: o.MaxCombinations,
		MaxBuffered:     o.MaxBuffered,
		CollectTimings:  o.CollectTimings,
		Tracer:          o.Tracer,
	}
}

// BoundedToK returns the options of a bounded consumer, a run that
// consumes at most K results: bounding MaxBuffered to K keeps the output
// byte-identical while keeping O(K) peak heap memory (an open session
// keeps what its window evicts). An explicit MaxBuffered wins. Every
// at-most-K consumer — the batch TopK* entry points, the service
// executor, the CLI — applies exactly this rule; a session that may
// enumerate past K must not, or it fails with ErrPastBound there.
func (o Options) BoundedToK() Options {
	if o.MaxBuffered == 0 && o.K > 0 {
		o.MaxBuffered = o.K
	}
	return o
}

// TopK answers a proximity rank join query over in-memory relations,
// building the appropriate sources for the configured access kind.
func TopK(query Vector, rels []*Relation, opts Options) (Result, error) {
	return TopKContext(context.Background(), query, rels, opts)
}

// TopKContext is TopK with cooperative cancellation: the run aborts with
// a wrapped ctx.Err() as soon as the context's deadline passes or it is
// canceled, without returning a partial result.
func TopKContext(ctx context.Context, query Vector, rels []*Relation, opts Options) (Result, error) {
	return TopKInputsContext(ctx, query, relationInputs(rels), opts)
}

// TopKInputs answers a query over a mix of plain and sharded relations:
// sharded inputs stream a merged view of their shards, so callers get
// partitioned indexes without involving the service layer.
func TopKInputs(query Vector, inputs []Input, opts Options) (Result, error) {
	return TopKInputsContext(context.Background(), query, inputs, opts)
}

// TopKInputsContext is TopKInputs with cooperative cancellation.
func TopKInputsContext(ctx context.Context, query Vector, inputs []Input, opts Options) (Result, error) {
	q, err := NewQueryInputs(query, inputs, opts.BoundedToK())
	if err != nil {
		return Result{}, err
	}
	return q.RunContext(ctx)
}

// relationInputs widens a relation list to the Input interface.
func relationInputs(rels []*Relation) []Input {
	inputs := make([]Input, len(rels))
	for i, rel := range rels {
		inputs[i] = rel
	}
	return inputs
}

// buildSources constructs one source per input for the configured access
// kind, over the access path the input owns (see relation.OpenSource): a
// sharded input streams a merge of its shards' streams, a plain relation
// is scanned.
func buildSources(query Vector, inputs []Input, opts Options) ([]Source, error) {
	sources := make([]Source, len(inputs))
	for i, in := range inputs {
		s, err := relation.OpenSource(in, opts.Access, query)
		if err != nil {
			return nil, err
		}
		sources[i] = s
	}
	return sources, nil
}

// checkSourceKinds verifies that every source delivers the access order
// the options announce — a mismatch would silently break the bounding
// schemes, which derive bounds from the access order.
func checkSourceKinds(sources []Source, access AccessKind) error {
	for _, s := range sources {
		if s.Kind() != access {
			return fmt.Errorf("proxrank: source %q has access kind %v, options say %v",
				s.Relation().Name, s.Kind(), access)
		}
	}
	return nil
}

// TopKFromSources answers a query over caller-supplied sources (remote
// services, fault-injected wrappers, custom orders). All sources must
// share one access kind consistent with opts.Access.
func TopKFromSources(query Vector, sources []Source, opts Options) (Result, error) {
	return TopKFromSourcesContext(context.Background(), query, sources, opts)
}

// TopKFromSourcesContext is TopKFromSources with cooperative
// cancellation.
//
// Like every batch entry point it is a Query session drained to K (see
// NewQuerySources): the engine is invoked through one path whether
// results are consumed as a batch or enumerated incrementally, and the
// pull sequence — hence every cost metric — is identical either way.
// Because the run consumes at most K results, it is a bounded consumer
// with its buffer bounded to K (unless the caller set MaxBuffered
// explicitly): peak retained combinations are O(K) even
// though Stats.CombinationsFormed can be orders of magnitude larger, and
// the results are byte-identical to an open session's.
func TopKFromSourcesContext(ctx context.Context, query Vector, sources []Source, opts Options) (Result, error) {
	q, err := NewQuerySources(query, sources, opts.BoundedToK())
	if err != nil {
		return Result{}, err
	}
	return q.RunContext(ctx)
}

// NaiveTopK scores the full cross product: the exact but exhaustive
// baseline, useful for validation and tiny inputs.
func NaiveTopK(query Vector, rels []*Relation, opts Options) ([]Combination, error) {
	fn, err := opts.aggregation()
	if err != nil {
		return nil, err
	}
	return core.Naive(rels, query, fn, opts.K)
}

// ErrDNF is a sentinel clients can use to detect capped runs. One
// condition, three surfaces (see api.CodeDNF for the wire mapping):
// batch results carry it as the Result.DNF flag with best-effort
// combinations attached; Query.Next returns ErrDNF once no buffered
// combination can be certified anymore; MustTopK panics with it.
var ErrDNF = errors.New("proxrank: run aborted by MaxSumDepths/MaxCombinations cap")

// ErrPastBound is returned by Query.Next once a bounded consumer — a
// session with MaxBuffered > 0 — has delivered
// MaxBuffered results: what ranks below them was dropped, so the session
// refuses to answer rather than answer wrong.
var ErrPastBound = core.ErrIteratorPastBound

// MustTopK is TopK that panics on error or DNF; for examples and tests.
func MustTopK(query Vector, rels []*Relation, opts Options) Result {
	res, err := TopK(query, rels, opts)
	if err != nil {
		panic(err)
	}
	if res.DNF {
		panic(ErrDNF)
	}
	return res
}
