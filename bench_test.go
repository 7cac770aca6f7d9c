package proxrank_test

// Benchmark harness: BenchmarkFig, one sub-benchmark per panel of the
// paper's Figure 3 (3a-3l), plus ablation benchmarks for the design
// choices (R-tree vs sorted access, tight vs corner bound; lazy vs eager
// bound maintenance is what the CPU panels 3(d)-(l) measure).
//
// BenchmarkFig takes its panels from experiments.Registry and runs each
// at reduced repetition (experiments.QuickSettings), so
// `go test -bench=Fig` regenerates the whole study and a new panel needs
// no new benchmark function.
// Absolute seconds differ from the 2010 testbed; the shapes are what is
// reproduced (see EXPERIMENTS.md).

import (
	"context"
	"strings"
	"testing"

	proxrank "repro"
	"repro/internal/benchcore"
	"repro/internal/cities"
	"repro/internal/core"
	"repro/internal/experiments"
)

// BenchmarkHotPath runs the engine hot-path suite shared with the
// committed BENCH_core.json snapshot (cmd/proxbench -core-out): batch
// TopK under both bounds, incremental session Next, a sharded-merge
// query over per-shard R-trees, the R-tree stream, FormationDeep (the
// proxserve benchmark's single_engine shape, deep prefixes under a
// K-bounded buffer) and ScoreDeep (its score class, prefixes a thousand
// deep).
// benchstat on `-bench=HotPath` before/after a change is the
// canonical way to claim a hot-path win.
func BenchmarkHotPath(b *testing.B) {
	for _, spec := range benchcore.Specs() {
		b.Run(spec.Name, spec.Bench)
	}
}

// BenchmarkFig runs each Figure 3 panel of the registry once per
// iteration, as a sub-benchmark named by its panel ID.
func BenchmarkFig(b *testing.B) {
	st := experiments.QuickSettings()
	for _, fig := range experiments.Registry() {
		if !strings.HasPrefix(fig.ID, "3") {
			continue // Tables 1-3 are not Figure 3 panels
		}
		b.Run(fig.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fig.Run(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRels builds a default synthetic instance once per benchmark.
func benchRels(b *testing.B, n, baseTuples int) ([]*proxrank.Relation, proxrank.Vector) {
	b.Helper()
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Relations = n
	cfg.BaseTuples = baseTuples
	cfg.Seed = 42
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rels, proxrank.Vector{0, 0}
}

// benchTopK times one full query per iteration.
func benchTopK(b *testing.B, rels []*proxrank.Relation, q proxrank.Vector, opts proxrank.Options) {
	b.Helper()
	b.ReportAllocs()
	var sumDepths int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := proxrank.TopK(q, rels, opts)
		if err != nil {
			b.Fatal(err)
		}
		sumDepths = res.Stats.SumDepths
	}
	b.ReportMetric(float64(sumDepths), "sumDepths")
}

// Ablation: the four algorithms on the default operating point (the
// paper's headline comparison, Table 2 defaults).
func BenchmarkAlgorithmCBRR(b *testing.B) {
	rels, q := benchRels(b, 2, 400)
	benchTopK(b, rels, q, proxrank.Options{K: 10, Algorithm: proxrank.CBRR})
}

func BenchmarkAlgorithmCBPA(b *testing.B) {
	rels, q := benchRels(b, 2, 400)
	benchTopK(b, rels, q, proxrank.Options{K: 10, Algorithm: proxrank.CBPA})
}

func BenchmarkAlgorithmTBRR(b *testing.B) {
	rels, q := benchRels(b, 2, 400)
	benchTopK(b, rels, q, proxrank.Options{K: 10, Algorithm: proxrank.TBRR})
}

func BenchmarkAlgorithmTBPA(b *testing.B) {
	rels, q := benchRels(b, 2, 400)
	benchTopK(b, rels, q, proxrank.Options{K: 10, Algorithm: proxrank.TBPA})
}

// Ablation: sorted distance access vs R-tree incremental NN access. The
// access path follows from the input: plain relations are sorted per
// query, the same relations as one-shard sharded inputs own an R-tree.
func BenchmarkAccessSorted(b *testing.B) {
	rels, q := benchRels(b, 2, 2000)
	benchTopK(b, rels, q, proxrank.Options{K: 10})
}

func BenchmarkAccessRTree(b *testing.B) {
	rels, q := benchRels(b, 2, 2000)
	inputs := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		s, err := proxrank.NewShardedRelation(rel, 1)
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.TopKInputs(q, inputs, proxrank.Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// Score-based access (Appendix C algorithms).
func BenchmarkScoreAccessTBPA(b *testing.B) {
	rels, q := benchRels(b, 2, 400)
	benchTopK(b, rels, q, proxrank.Options{K: 10, Access: proxrank.ScoreAccess})
}

func BenchmarkScoreAccessCBPA(b *testing.B) {
	rels, q := benchRels(b, 2, 400)
	benchTopK(b, rels, q, proxrank.Options{K: 10, Access: proxrank.ScoreAccess, Algorithm: proxrank.CBPA})
}

// City workload (the Fig 3(i)/(l) per-query cost).
func BenchmarkCityQuery(b *testing.B) {
	city, err := cities.ByCode("SF")
	if err != nil {
		b.Fatal(err)
	}
	rels, err := city.Relations()
	if err != nil {
		b.Fatal(err)
	}
	pub := make([]*proxrank.Relation, len(rels))
	copy(pub, rels)
	benchTopK(b, pub, city.Query(), proxrank.Options{
		K: 10, Weights: proxrank.Weights{Ws: 1, Wq: 2000, Wmu: 2000},
	})
}

// cityBenchSetup loads one bundled city study and its paper weighting.
func cityBenchSetup(b *testing.B, code string) ([]*proxrank.Relation, proxrank.Vector, proxrank.Options) {
	b.Helper()
	city, err := cities.ByCode(code)
	if err != nil {
		b.Fatal(err)
	}
	rels, err := city.Relations()
	if err != nil {
		b.Fatal(err)
	}
	opts := proxrank.Options{K: 10, Weights: proxrank.Weights{Ws: 1, Wq: 2000, Wmu: 2000}}
	return rels, proxrank.Vector(city.Query()), opts
}

// BenchmarkCityTimeToFirstResult measures ranked enumeration's headline
// property on the city studies: the latency until the rank-1 result is
// certified by a fresh Query session — what a streaming client waits
// before its first NDJSON line.
func BenchmarkCityTimeToFirstResult(b *testing.B) {
	for _, code := range []string{"SF", "NY", "BO", "DA", "HO"} {
		b.Run(code, func(b *testing.B) {
			rels, q, opts := cityBenchSetup(b, code)
			inputs := make([]proxrank.Input, len(rels))
			for i, r := range rels {
				inputs[i] = r
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := proxrank.NewQueryInputs(q, inputs, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Next(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCityTimeToComplete is the batch twin: the same session
// drained to K=10, i.e. what a batch client waits for the full
// response. The gap to BenchmarkCityTimeToFirstResult is the latency
// incremental retrieval saves.
func BenchmarkCityTimeToComplete(b *testing.B) {
	for _, code := range []string{"SF", "NY", "BO", "DA", "HO"} {
		b.Run(code, func(b *testing.B) {
			rels, q, opts := cityBenchSetup(b, code)
			inputs := make([]proxrank.Input, len(rels))
			for i, r := range rels {
				inputs[i] = r
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := proxrank.NewQueryInputs(q, inputs, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.RunContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Oracle cost for scale: the naive full cross product the operators avoid.
func BenchmarkNaiveBaseline(b *testing.B) {
	rels, q := benchRels(b, 2, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: the benchmark harness exercises the same code paths the engine
// validates; keep a compile-time reference to core so the harness fails
// loudly if the algorithm set changes.
var _ = core.Algorithms
