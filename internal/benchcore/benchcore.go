// Package benchcore defines the engine hot-path micro-benchmarks in one
// place, so `go test -bench=HotPath` and the committed BENCH_core.json
// snapshot (`proxbench -core-out`) measure exactly the same workloads:
// batch TopK (tight and corner bounds), incremental session Next, a
// sharded-merge query over per-shard R-trees, the R-tree distance stream
// itself and the scan that replaces it from dimension 8, top-20s over prefixes hundreds (distance) and a thousand (score
// access) tuples deep, and the grid partitioning of one relation. The
// JSON snapshot is the perf trajectory record — regenerate it on the same
// class of hardware before claiming a win or a regression (see
// EXPERIMENTS.md).
package benchcore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	proxrank "repro"
)

// Spec names one hot-path benchmark.
type Spec struct {
	Name  string
	Bench func(b *testing.B)
}

// Specs lists the hot-path benchmarks in report order.
func Specs() []Spec {
	return []Spec{
		{Name: "TopK", Bench: BenchTopK},
		{Name: "TopKCorner", Bench: BenchTopKCorner},
		{Name: "SessionNext", Bench: BenchSessionNext},
		{Name: "ShardedMerge", Bench: BenchShardedMerge},
		{Name: "RTreeOpenFirst", Bench: BenchRTreeOpenFirst},
		{Name: "RTreePrefix100", Bench: BenchRTreePrefix100},
		{Name: "ScanPrefix165", Bench: BenchScanPrefix165},
		{Name: "FormationDeep", Bench: BenchFormationDeep},
		{Name: "ScoreDeep", Bench: BenchScoreDeep},
		{Name: "PartitionGrid", Bench: BenchPartitionGrid},
	}
}

func mustRels(n, base int, seed int64) ([]*proxrank.Relation, proxrank.Vector) {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Relations = n
	cfg.BaseTuples = base
	cfg.Seed = seed
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		panic(err)
	}
	return rels, proxrank.Vector{0, 0}
}

func inputsOf(rels []*proxrank.Relation) []proxrank.Input {
	inputs := make([]proxrank.Input, len(rels))
	for i, r := range rels {
		inputs[i] = r
	}
	return inputs
}

// Workload state is built once per process and shared read-only, so the
// benchmarks time queries, not data generation.
var (
	batchOnce sync.Once
	batchRels []*proxrank.Relation
	batchQ    proxrank.Vector

	sessOnce sync.Once
	sessRels []*proxrank.Relation
	sessQ    proxrank.Vector

	shardOnce   sync.Once
	shardInputs []proxrank.Input
	shardQ      proxrank.Vector

	rtreeOnce    sync.Once
	rtreeIndexes []*proxrank.ShardedRelation // one shard per relation
	rtreeQueries []proxrank.Vector

	scanOnce    sync.Once
	scanShard   *proxrank.ShardedRelation // one dim-8 shard
	scanQueries []proxrank.Vector
)

func batchSetup() ([]*proxrank.Relation, proxrank.Vector) {
	batchOnce.Do(func() { batchRels, batchQ = mustRels(2, 400, 42) })
	return batchRels, batchQ
}

func sessSetup() ([]*proxrank.Relation, proxrank.Vector) {
	sessOnce.Do(func() { sessRels, sessQ = mustRels(2, 2000, 7) })
	return sessRels, sessQ
}

func shardSetup() ([]proxrank.Input, proxrank.Vector) {
	shardOnce.Do(func() {
		rels, q := mustRels(2, 2000, 42)
		inputs := make([]proxrank.Input, len(rels))
		for i, r := range rels {
			sharded, err := proxrank.NewShardedRelation(r, 8)
			if err != nil {
				panic(err)
			}
			inputs[i] = sharded
		}
		shardInputs, shardQ = inputs, q
	})
	return shardInputs, shardQ
}

// rtreeSetup indexes two 20 000-tuple dim-4 relations (the shape of the
// proxserve benchmark's engine workloads) as one-shard partitions and
// fixes 64 query points spread over the inner half of their region.
func rtreeSetup() ([]*proxrank.ShardedRelation, []proxrank.Vector) {
	rtreeOnce.Do(func() {
		cfg := proxrank.DefaultSyntheticConfig()
		cfg.Dim, cfg.BaseTuples, cfg.Seed = 4, 20_000, 11
		rels, err := proxrank.SyntheticRelations(cfg)
		if err != nil {
			panic(err)
		}
		for _, rel := range rels {
			ix, err := proxrank.NewShardedRelation(rel, 1)
			if err != nil {
				panic(err)
			}
			rtreeIndexes = append(rtreeIndexes, ix)
		}
		r := rand.New(rand.NewSource(12))
		rtreeQueries = make([]proxrank.Vector, 64)
		for i := range rtreeQueries {
			q := make(proxrank.Vector, cfg.Dim)
			for c := range q {
				q[c] = (r.Float64() - 0.5) * cfg.SideLength() / 2
			}
			rtreeQueries[i] = q
		}
	})
	return rtreeIndexes, rtreeQueries
}

// BenchTopK is the headline batch query at the paper's default operating
// point (2 relations × 400 tuples, K = 10, TBPA).
func BenchTopK(b *testing.B) {
	rels, q := batchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.TopK(q, rels, proxrank.Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchTopKCorner is the same query under the corner bound (CBRR): the
// deepest-reading algorithm, hence the largest cross product — the
// workload where combination formation dominates.
func BenchTopKCorner(b *testing.B) {
	rels, q := batchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.TopK(q, rels, proxrank.Options{K: 10, Algorithm: proxrank.CBRR}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchSessionNext measures one incremental Next(1) on a long-lived open
// ranked-enumeration session over 2 × 2000 tuples: the default window,
// with Next running far past it, so revival from the spill heap is on the
// clock. The session is rebuilt off the clock when exhausted.
func BenchSessionNext(b *testing.B) {
	rels, q := sessSetup()
	opts := proxrank.Options{K: 10}
	inputs := inputsOf(rels)
	sess, err := proxrank.NewQueryInputs(q, inputs, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { sess.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Next(1); err != nil {
			if errors.Is(err, proxrank.ErrStreamDone) {
				b.StopTimer()
				sess.Close()
				if sess, err = proxrank.NewQueryInputs(q, inputs, opts); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				continue
			}
			b.Fatal(err)
		}
	}
}

// BenchShardedMerge runs the batch query over relations cut into 8 grid
// shards each, so every pull crosses the k-way merge of the per-shard
// R-tree streams, each shard latent until the merge reaches its box: the
// source plan a single node opens for a query.
func BenchShardedMerge(b *testing.B) {
	inputs, q := shardSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.TopKInputs(q, inputs, proxrank.Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRTreePrefix opens a distance stream on the shared index, pulls
// its first k tuples and closes it, one query point after another. A
// session closes its streams, so a closed stream's cost is the one a
// query pays: its traversal scratch goes to the next open.
func benchRTreePrefix(b *testing.B, k int) {
	ixs, queries := rtreeSetup()
	ix := ixs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := proxrank.OpenSource(ix, proxrank.DistanceAccess, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < k; j++ {
			if _, err := src.Next(); err != nil {
				b.Fatal(err)
			}
		}
		src.(interface{ Close() }).Close()
	}
}

// BenchRTreeOpenFirst is what a distance stream costs before its first
// tuple: open an incremental traversal on a shared R-tree and take one
// neighbour. Every shard stream a query opens pays this once.
func BenchRTreeOpenFirst(b *testing.B) { benchRTreePrefix(b, 1) }

// BenchRTreePrefix100 is the steady-state step: open and pull 100 tuples,
// a typical depth for one relation of a top-10 query.
func BenchRTreePrefix100(b *testing.B) { benchRTreePrefix(b, 100) }

// scanSetup is one 7 500-tuple dim-8 shard of Gaussian vectors, the shard
// size of a 30 000-tuple relation in four, and 64 Gaussian queries.
func scanSetup() (*proxrank.ShardedRelation, []proxrank.Vector) {
	scanOnce.Do(func() {
		r := rand.New(rand.NewSource(13))
		gauss := func() proxrank.Vector {
			v := make(proxrank.Vector, 8)
			for c := range v {
				v[c] = r.NormFloat64()
			}
			return v
		}
		tuples := make([]proxrank.Tuple, 7500)
		for i := range tuples {
			tuples[i] = proxrank.Tuple{ID: fmt.Sprintf("s%d", i), Score: 0.01 + 0.99*r.Float64(), Vec: gauss()}
		}
		rel, err := proxrank.NewRelation("scan", 1, tuples)
		if err != nil {
			panic(err)
		}
		if scanShard, err = proxrank.NewShardedRelation(rel, 1); err != nil {
			panic(err)
		}
		scanQueries = make([]proxrank.Vector, 64)
		for i := range scanQueries {
			scanQueries[i] = gauss()
		}
	})
	return scanShard, scanQueries
}

// BenchScanPrefix165 is a distance stream from dimension 8, where a shard
// scans its columns instead of traversing an R-tree: open one 7 500-tuple
// shard's stream, pull 165 tuples and close it, one query after another.
// A closed scan hands its key buffers to the next open, so what is left
// is the stream itself.
func BenchScanPrefix165(b *testing.B) {
	ix, queries := scanSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := proxrank.OpenSource(ix, proxrank.DistanceAccess, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 165; j++ {
			if _, err := src.Next(); err != nil {
				b.Fatal(err)
			}
		}
		src.(interface{ Close() }).Close()
	}
}

// BenchFormationDeep is the proxserve benchmark's single_engine shape as a
// library call: top-20 (TBPA, then CBRR on every third query) over
// 2 × 20 000 × dim 4 behind the shared R-trees, through the TopK family,
// so each query is a bounded consumer with its buffer bounded to K. Prefixes
// run hundreds deep per relation: the workload where what a pull costs
// per prefix tuple, not per surviving combination, shows.
func BenchFormationDeep(b *testing.B) {
	ixs, queries := rtreeSetup()
	sources := make([]proxrank.Source, len(ixs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		for j, ix := range ixs {
			src, err := proxrank.OpenSource(ix, proxrank.DistanceAccess, q)
			if err != nil {
				b.Fatal(err)
			}
			sources[j] = src
		}
		opts := proxrank.Options{K: 20}
		if i%3 == 2 {
			opts.Algorithm = proxrank.CBRR
		}
		if _, err := proxrank.TopKFromSources(q, sources, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchScoreDeep is the proxserve benchmark's single_engine score class:
// top-20 TBPA over score access, weights 1 / 0.05 / 0.05, on the 2 × 20 000
// × dim 4 relations in AutoShardCount grid shards. A query pulls some
// 2 400 tuples, so what a pull costs as the prefix deepens shows here.
func BenchScoreDeep(b *testing.B) {
	ixs, queries := rtreeSetup()
	inputs := make([]proxrank.Input, len(ixs))
	for i, ix := range ixs {
		rel := ix.Relation()
		g, err := proxrank.NewShardedRelation(rel, proxrank.AutoShardCount(rel.Len()))
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = g
	}
	opts := proxrank.Options{K: 20, Algorithm: proxrank.TBPA, Access: proxrank.ScoreAccess,
		Weights: proxrank.Weights{Ws: 1, Wq: 0.05, Wmu: 0.05}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.TopKInputs(queries[i%len(queries)], inputs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchPartitionGrid is what admitting a relation costs: one 20 000-tuple
// dim-4 relation cut into 12 grid shards, score order and R-tree of every
// shard included. The proxserve benchmark's coord3_wire set-up does this
// six times and hot_stream once per catalog write.
func BenchPartitionGrid(b *testing.B) {
	ixs, _ := rtreeSetup()
	rel := ixs[0].Relation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.NewShardedRelation(rel, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// Result is one benchmark measurement of a Snapshot.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

// Snapshot is the BENCH_core.json document.
type Snapshot struct {
	GeneratedAt string   `json:"generatedAt"`
	GoOS        string   `json:"goos"`
	GoArch      string   `json:"goarch"`
	NumCPU      int      `json:"numCPU"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	Benchmarks  []Result `json:"benchmarks"`
}

// Run executes every hot-path benchmark through testing.Benchmark and
// returns the snapshot.
func Run() Snapshot {
	snap := Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	for _, spec := range Specs() {
		r := testing.Benchmark(spec.Bench)
		snap.Benchmarks = append(snap.Benchmarks, Result{
			Name:        spec.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return snap
}

// Write renders a snapshot as indented JSON.
func (s Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("benchcore: encoding snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses a BENCH_core.json document.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("benchcore: decoding snapshot: %w", err)
	}
	return s, nil
}

// allocTolerance is the allocs/op headroom CheckAllocs allows over the
// committed value, as a fraction of it.
const allocTolerance = 0.10

// CheckAllocs gates allocation regressions: every benchmark present in
// both snapshots must not exceed the committed allocs/op by more than
// allocTolerance. Allocation counts are the
// one hot-path metric that is deterministic across hardware — unlike
// ns/op, which CI runners make too noisy to gate on — so this is the
// check that keeps the arena'd partial state and the allocation-free
// merge from silently regressing. Benchmarks appearing in only one
// snapshot are skipped (renames and additions are not regressions); all
// violations are reported together.
func CheckAllocs(fresh, committed Snapshot) error {
	base := make(map[string]Result, len(committed.Benchmarks))
	for _, b := range committed.Benchmarks {
		base[b.Name] = b
	}
	var bad []string
	for _, b := range fresh.Benchmarks {
		ref, ok := base[b.Name]
		if !ok {
			continue
		}
		// The +1 floor keeps a tiny committed count (0 or 1 allocs/op)
		// from turning one stray allocation into a hard failure.
		limit := int64(float64(ref.AllocsPerOp)*(1+allocTolerance)) + 1
		if b.AllocsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op exceeds committed %d (+%.0f%% tolerance → limit %d)",
				b.Name, b.AllocsPerOp, ref.AllocsPerOp, allocTolerance*100, limit))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchcore: allocation regression:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
