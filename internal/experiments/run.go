package experiments

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/cities"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/vec"
)

// defaultAgg is the aggregation of paper eq. (2) with the Example 2.1
// weights (w_s = w_q = w_µ = 1).
func defaultAgg() agg.Function {
	return agg.MustEuclideanSum(agg.DefaultWeights(), agg.LogScore)
}

// runOnce executes one algorithm over the given relations.
func runOnce(rels []*relation.Relation, q vec.Vector, opts core.Options) (core.Result, error) {
	sources := make([]relation.Source, len(rels))
	for i, rel := range rels {
		s, err := relation.OpenSource(rel, relation.DistanceAccess, q, opts.Agg.Metric())
		if err != nil {
			return core.Result{}, err
		}
		sources[i] = s
	}
	e, err := core.NewEngine(sources, opts)
	if err != nil {
		return core.Result{}, err
	}
	return e.Run()
}

func toSample(res core.Result) stats.Sample {
	return stats.Sample{
		SumDepths:          res.Stats.SumDepths,
		Depths:             res.Stats.Depths,
		CombinationsFormed: res.Stats.CombinationsFormed,
		QPSolves:           res.Stats.QPSolves,
		TotalTime:          res.Stats.TotalTime,
		BoundTime:          res.Stats.BoundTime,
		DNF:                res.DNF,
	}
}

// RunSyntheticPoint averages one algorithm at one synthetic operating
// point over Settings.Reps seeded data sets. The query is the origin (the
// center of the generated region, as in Appendix D.1).
func RunSyntheticPoint(st Settings, p Point, algo core.Algorithm, eager bool) (stats.Summary, error) {
	var col stats.Collector
	for rep := 0; rep < st.Reps; rep++ {
		cfg := datagen.SyntheticConfig{
			Relations:  p.N,
			Dim:        p.Dim,
			Density:    p.Density,
			Skew:       p.Skew,
			BaseTuples: st.BaseTuples,
			MinScore:   0.01,
			Seed:       st.Seed + int64(rep)*7919,
		}
		rels, err := datagen.Synthetic(cfg)
		if err != nil {
			return stats.Summary{}, err
		}
		res, err := runOnce(rels, vec.New(p.Dim), core.Options{
			K:               p.K,
			Algorithm:       algo,
			Query:           vec.New(p.Dim),
			Agg:             defaultAgg(),
			EagerBounds:     eager,
			MaxSumDepths:    st.MaxSumDepths,
			MaxCombinations: st.MaxCombinations,
			CollectTimings:  true,
		})
		if err != nil {
			return stats.Summary{}, fmt.Errorf("experiments: point %+v algo %v: %w", p, algo, err)
		}
		col.Add(toSample(res))
	}
	return col.Summarize(), nil
}

// RunCity executes one algorithm on a simulated city data set (n = 3:
// hotels × restaurants × theaters, K = 10 as in Appendix D.2). Timing
// repeats reuse the same data; sumDepths is deterministic per city.
func RunCity(st Settings, city cities.City, algo core.Algorithm, eager bool) (stats.Summary, error) {
	rels, err := city.Relations()
	if err != nil {
		return stats.Summary{}, err
	}
	reps := st.Reps
	if reps < 1 {
		reps = 1
	}
	var col stats.Collector
	for rep := 0; rep < reps; rep++ {
		res, err := runOnce(rels, city.Query(), core.Options{
			K:               10,
			Algorithm:       algo,
			Query:           city.Query(),
			Agg:             cityAgg(),
			EagerBounds:     eager,
			MaxSumDepths:    st.MaxSumDepths,
			MaxCombinations: st.MaxCombinations,
			CollectTimings:  true,
		})
		if err != nil {
			return stats.Summary{}, fmt.Errorf("experiments: city %s algo %v: %w", city.Code, algo, err)
		}
		col.Add(toSample(res))
	}
	return col.Summarize(), nil
}

// cityAgg weights the geographic terms up: city coordinates are degrees
// (≈ 0.01-0.05 in magnitude), so distance penalties need rescaling to
// compete with the score term, as any deployment tuning would do. 2000
// makes "a district away" (≈ 0.05°) cost about five units of log-score —
// the evening-planner regime where proximity genuinely matters.
func cityAgg() agg.Function {
	return agg.MustEuclideanSum(agg.Weights{Ws: 1, Wq: 2000, Wmu: 2000}, agg.LogScore)
}
