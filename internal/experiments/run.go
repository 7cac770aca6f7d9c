package experiments

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/cities"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/vec"
)

// Summary is one algorithm at one point, averaged over its repetitions:
// the paper reports every figure as the mean over ten seeded data sets
// (§4.1), with CPU time split into the bound-update share and the rest
// (the stacked bars of Figure 3).
type Summary struct {
	Runs               int
	DNFs               int
	SumDepths          float64
	CombinationsFormed float64
	QPSolves           float64
	TotalSeconds       float64
	BoundSeconds       float64
}

// add counts one run; a run that finished adds to the sums, one that
// did not is only counted, mirroring how the paper reports "did not
// finish".
func (s *Summary) add(res core.Result) {
	s.Runs++
	if res.DNF {
		s.DNFs++
		return
	}
	s.SumDepths += float64(res.Stats.SumDepths)
	s.CombinationsFormed += float64(res.Stats.CombinationsFormed)
	s.QPSolves += float64(res.Stats.QPSolves)
	s.TotalSeconds += res.Stats.TotalTime.Seconds()
	s.BoundSeconds += res.Stats.BoundTime.Seconds()
}

// summarize runs reps repetitions, at least one, and averages the runs
// that finished.
func summarize(reps int, run func(rep int) (core.Result, error)) (Summary, error) {
	var s Summary
	for rep := range max(reps, 1) {
		res, err := run(rep)
		if err != nil {
			return Summary{}, err
		}
		s.add(res)
	}
	if n := s.Runs - s.DNFs; n > 0 {
		f := 1 / float64(n)
		s.SumDepths *= f
		s.CombinationsFormed *= f
		s.QPSolves *= f
		s.TotalSeconds *= f
		s.BoundSeconds *= f
	}
	return s, nil
}

// defaultAgg is the aggregation of paper eq. (2) with the Example 2.1
// weights (w_s = w_q = w_µ = 1).
func defaultAgg() *agg.EuclideanSum {
	return agg.MustEuclideanSum(agg.DefaultWeights(), agg.LogScore)
}

// runOnce executes one algorithm over the given relations under the
// DNF guards of st, with timings collected.
func runOnce(st Settings, rels []*relation.Relation, opts core.Options) (core.Result, error) {
	sources := make([]relation.Source, len(rels))
	for i, rel := range rels {
		s, err := relation.OpenSource(rel, relation.DistanceAccess, opts.Query)
		if err != nil {
			return core.Result{}, err
		}
		sources[i] = s
	}
	opts.MaxSumDepths = st.MaxSumDepths
	opts.MaxCombinations = st.MaxCombinations
	opts.CollectTimings = true
	e, err := core.NewEngine(sources, opts)
	if err != nil {
		return core.Result{}, err
	}
	return e.Run()
}

// RunSyntheticPoint averages one algorithm at one synthetic operating
// point over Settings.Reps seeded data sets. The query is the origin (the
// center of the generated region, as in Appendix D.1).
func RunSyntheticPoint(st Settings, p Point, algo core.Algorithm, eager bool) (Summary, error) {
	return summarize(st.Reps, func(rep int) (core.Result, error) {
		rels, err := datagen.Synthetic(datagen.SyntheticConfig{
			Relations:  p.N,
			Dim:        p.Dim,
			Density:    p.Density,
			Skew:       p.Skew,
			BaseTuples: st.BaseTuples,
			MinScore:   0.01,
			Seed:       st.Seed + int64(rep)*7919,
		})
		if err != nil {
			return core.Result{}, err
		}
		res, err := runOnce(st, rels, core.Options{
			K: p.K, Algorithm: algo, Query: vec.New(p.Dim), Agg: defaultAgg(), EagerBounds: eager,
		})
		if err != nil {
			return core.Result{}, fmt.Errorf("experiments: point %+v algo %v: %w", p, algo, err)
		}
		return res, nil
	})
}

// RunCity executes one algorithm on a simulated city data set (n = 3:
// hotels × restaurants × theaters, K = 10 as in Appendix D.2). Timing
// repeats reuse the same data; sumDepths is deterministic per city.
func RunCity(st Settings, city cities.City, algo core.Algorithm, eager bool) (Summary, error) {
	rels, err := city.Relations()
	if err != nil {
		return Summary{}, err
	}
	return summarize(st.Reps, func(int) (core.Result, error) {
		res, err := runOnce(st, rels, core.Options{
			K: 10, Algorithm: algo, Query: city.Query(), Agg: cityAgg(), EagerBounds: eager,
		})
		if err != nil {
			return core.Result{}, fmt.Errorf("experiments: city %s algo %v: %w", city.Code, algo, err)
		}
		return res, nil
	})
}

// cityAgg weights the geographic terms up: city coordinates are degrees
// (≈ 0.01-0.05 in magnitude), so distance penalties need rescaling to
// compete with the score term, as any deployment tuning would do. 2000
// makes "a district away" (≈ 0.05°) cost about five units of log-score —
// the evening-planner regime where proximity genuinely matters.
func cityAgg() *agg.EuclideanSum {
	return agg.MustEuclideanSum(agg.Weights{Ws: 1, Wq: 2000, Wmu: 2000}, agg.LogScore)
}
