package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/vec"
)

// The paper's tables, regenerated from the implementation (not
// hard-coded): Table 1 (worked example scores), Table 2 (the parameter
// grid itself), Table 3 (per-partial tight bounds at depth (2,2,2)).

// table1Relations are the fixtures of paper Table 1 / Figure 1.
func table1Relations() ([]*relation.Relation, error) {
	r1, err := relation.New("R1", 1.0, []relation.Tuple{
		{ID: "τ1(1)", Score: 0.5, Vec: vec.Of(0, -0.5)},
		{ID: "τ1(2)", Score: 1.0, Vec: vec.Of(0, 1)},
	})
	if err != nil {
		return nil, err
	}
	r2, err := relation.New("R2", 1.0, []relation.Tuple{
		{ID: "τ2(1)", Score: 1.0, Vec: vec.Of(1, 1)},
		{ID: "τ2(2)", Score: 0.8, Vec: vec.Of(-2, 2)},
	})
	if err != nil {
		return nil, err
	}
	r3, err := relation.New("R3", 1.0, []relation.Tuple{
		{ID: "τ3(1)", Score: 1.0, Vec: vec.Of(-1, 1)},
		{ID: "τ3(2)", Score: 0.4, Vec: vec.Of(-2, -2)},
	})
	if err != nil {
		return nil, err
	}
	return []*relation.Relation{r1, r2, r3}, nil
}

func table1(Settings) (*Table, error) {
	rels, err := table1Relations()
	if err != nil {
		return nil, err
	}
	combos, err := core.Naive(rels, vec.Of(0, 0), defaultAgg(), 8)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 1: combinations of the worked example, sorted by S (ws=wq=wmu=1, q=0)",
		Header: []string{"combination", "S"},
	}
	for _, c := range combos {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s x %s x %s", c.Tuples[0].ID, c.Tuples[1].ID, c.Tuples[2].ID),
			fmt.Sprintf("%.1f", c.Score),
		})
	}
	t.Notes = append(t.Notes, "paper values: -7.0 -8.4 -13.9 -16.3 -21.0 -22.6 -28.9 -29.5")
	return t, nil
}

// table2Axes are Table 2's rows in the paper's order.
var table2Axes = []*axis{&kAxis, &dimAxis, &densityAxis, &skewAxis, &nAxis}

func table2(Settings) (*Table, error) {
	t := &Table{
		Title:  "Table 2: operating parameters (defaults marked *)",
		Header: []string{"parameter", "tested values"},
	}
	for _, a := range table2Axes {
		values := make([]string, len(a.values))
		for i, v := range a.values {
			values[i] = fmt.Sprintf("%g", v)
			if a.point(v) == DefaultPoint() {
				values[i] += "*"
			}
		}
		t.Rows = append(t.Rows, []string{a.name, strings.Join(values, ", ")})
	}
	return t, nil
}

func table3(Settings) (*Table, error) {
	rels, err := table1Relations()
	if err != nil {
		return nil, err
	}
	q := vec.Of(0, 0)
	sources := make([]relation.Source, len(rels))
	for i, r := range rels {
		s, err := relation.OpenSource(r, relation.DistanceAccess, q, nil)
		if err != nil {
			return nil, err
		}
		sources[i] = s
	}
	e, err := core.NewEngine(sources, core.Options{
		K: 1, Algorithm: core.TBRR, Query: q, Agg: defaultAgg(),
	})
	if err != nil {
		return nil, err
	}
	// Reach the paper's state: both tuples of each relation extracted.
	for _, ri := range []int{0, 0, 1, 1, 2, 2} {
		if err := e.StepForTest(ri); err != nil {
			return nil, err
		}
	}
	subsets, ok := e.TightBoundBreakdown()
	if !ok {
		return nil, fmt.Errorf("experiments: tight bound breakdown unavailable")
	}
	t := &Table{
		Title:  "Table 3: partial combinations and their tight upper bounds (depths 2,2,2)",
		Header: []string{"M", "partial", "t(tau)", "t_M"},
	}
	overall := e.Threshold()
	for _, sb := range subsets {
		mLabel := "{}"
		if len(sb.Members) > 0 {
			var parts []string
			for _, m := range sb.Members {
				parts = append(parts, fmt.Sprintf("%d", m+1))
			}
			mLabel = "{" + strings.Join(parts, ",") + "}"
		}
		for i, p := range sb.Partials {
			partial := "<>"
			if len(p.TupleIDs) > 0 {
				partial = strings.Join(p.TupleIDs, " x ")
			}
			tm := ""
			if i == 0 {
				tm = fmt.Sprintf("%.1f", sb.TM)
			}
			t.Rows = append(t.Rows, []string{mLabel, partial, fmt.Sprintf("%.1f", p.Bound), tm})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("overall tight bound t = %.1f (paper: -7.0, achieved completing τ2(1) x τ3(1))", overall))
	return t, nil
}
