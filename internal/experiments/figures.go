package experiments

import (
	"fmt"

	"repro/internal/cities"
	"repro/internal/core"
	"repro/internal/stats"
)

// Figure is one reproducible experiment of the paper's Figure 3.
type Figure struct {
	// ID is the paper panel label ("3a" … "3l") or table label ("t1" … "t3").
	ID string
	// Title describes the sweep.
	Title string
	// Run executes the experiment and renders its table.
	Run func(st Settings) (*Table, error)
}

// Registry returns all figure runners in paper order.
func Registry() []Figure {
	return []Figure{
		{ID: "3a", Title: "Fig 3(a): sumDepths vs number of top results K", Run: fig3a},
		{ID: "3b", Title: "Fig 3(b): sumDepths vs number of dimensions d", Run: fig3b},
		{ID: "3c", Title: "Fig 3(c): sumDepths vs density rho", Run: fig3c},
		{ID: "3d", Title: "Fig 3(d): total CPU time vs K (with bound fraction)", Run: fig3d},
		{ID: "3e", Title: "Fig 3(e): total CPU time vs d (with bound fraction)", Run: fig3e},
		{ID: "3f", Title: "Fig 3(f): total CPU time vs rho (with bound fraction)", Run: fig3f},
		{ID: "3g", Title: "Fig 3(g): sumDepths vs skewness rho1/rho2", Run: fig3g},
		{ID: "3h", Title: "Fig 3(h): sumDepths vs number of relations n", Run: fig3h},
		{ID: "3i", Title: "Fig 3(i): sumDepths on the five city data sets", Run: fig3i},
		{ID: "3j", Title: "Fig 3(j): total CPU time vs skewness", Run: fig3j},
		{ID: "3k", Title: "Fig 3(k): total CPU time vs number of relations n", Run: fig3k},
		{ID: "3l", Title: "Fig 3(l): total CPU time on the five city data sets", Run: fig3l},
		{ID: "t1", Title: "Table 1: worked-example combination scores", Run: table1},
		{ID: "t2", Title: "Table 2: operating parameter grid", Run: table2},
		{ID: "t3", Title: "Table 3: partial combinations and tight bounds", Run: table3},
	}
}

// ByID returns the figure runner with the given ID.
func ByID(id string) (Figure, bool) {
	for _, f := range Registry() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// dnfCell renders one point's cell: v is the mean over the repetitions
// that finished, so a point where some did not says how many — a bare
// mean of the survivors would read as a cheaper join — and a point where
// none did reads DNF.
func dnfCell(s stats.Summary, v string) string {
	switch {
	case s.DNFs == s.Runs:
		return "DNF"
	case s.DNFs > 0:
		return fmt.Sprintf("%s (%d/%d DNF)", v, s.DNFs, s.Runs)
	}
	return v
}

// depthsCell is a cell of the sumDepths panels.
func depthsCell(s stats.Summary) string { return dnfCell(s, cell(s.SumDepths)) }

// cpuCell is a cell of the CPU panels: total time, with the updateBound
// fraction in parentheses for the tight-bound algorithms.
func cpuCell(s stats.Summary, a core.Algorithm) string {
	v := secCell(s.TotalSeconds)
	if a.Bound() == core.TightBound {
		v = fmt.Sprintf("%s(%s)", v, secCell(s.BoundSeconds))
	}
	return dnfCell(s, v)
}

// sweepDepths renders a sumDepths table with one row per parameter value
// and one column per algorithm.
func sweepDepths(st Settings, title, param string, values []string, point func(i int) Point) (*Table, error) {
	t := &Table{Title: title, Header: []string{param, "CBRR(HRJN)", "CBPA(HRJN*)", "TBRR", "TBPA"}}
	var lastCBPA, lastTBPA float64
	for i, label := range values {
		row := []string{label}
		for _, a := range algorithms {
			s, err := RunSyntheticPoint(st, point(i), a, false)
			if err != nil {
				return nil, err
			}
			row = append(row, depthsCell(s))
			if a == core.CBPA {
				lastCBPA = s.SumDepths
			}
			if a == core.TBPA {
				lastTBPA = s.SumDepths
			}
		}
		t.Rows = append(t.Rows, row)
	}
	if lastCBPA > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("last row: TBPA saves %.0f%% of accesses vs CBPA",
			stats.Gain(lastCBPA, lastTBPA)))
	}
	return t, nil
}

// sweepCPU renders a CPU-time table (total with the updateBound fraction),
// the stacked-bar content of the paper's panels.
func sweepCPU(st Settings, title, param string, values []string, point func(i int) Point) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{param, "CBRR total", "CBPA total", "TBRR total(bound)", "TBPA total(bound)"},
	}
	for i, label := range values {
		row := []string{label}
		for _, a := range algorithms {
			s, err := RunSyntheticPoint(st, point(i), a, st.EagerCPU)
			if err != nil {
				return nil, err
			}
			row = append(row, cpuCell(s, a))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"parenthesized value: time inside updateBound (lighter stacked bar in the paper)")
	return t, nil
}

func fig3a(st Settings) (*Table, error) {
	labels := make([]string, len(KValues))
	for i, k := range KValues {
		labels[i] = fmt.Sprintf("K=%d", k)
	}
	return sweepDepths(st, "Fig 3(a): sumDepths vs K (n=2, d=2, rho=100)", "K", labels, func(i int) Point {
		p := DefaultPoint()
		p.K = KValues[i]
		return p
	})
}

func fig3b(st Settings) (*Table, error) {
	labels := make([]string, len(DimValues))
	for i, d := range DimValues {
		labels[i] = fmt.Sprintf("d=%d", d)
	}
	return sweepDepths(st, "Fig 3(b): sumDepths vs d (K=10, n=2, rho=100)", "d", labels, func(i int) Point {
		p := DefaultPoint()
		p.Dim = DimValues[i]
		return p
	})
}

func fig3c(st Settings) (*Table, error) {
	labels := make([]string, len(DensityValues))
	for i, r := range DensityValues {
		labels[i] = fmt.Sprintf("rho=%g", r)
	}
	return sweepDepths(st, "Fig 3(c): sumDepths vs density (K=10, n=2, d=2)", "rho", labels, func(i int) Point {
		p := DefaultPoint()
		p.Density = DensityValues[i]
		return p
	})
}

func fig3d(st Settings) (*Table, error) {
	labels := make([]string, len(KValues))
	for i, k := range KValues {
		labels[i] = fmt.Sprintf("K=%d", k)
	}
	return sweepCPU(st, "Fig 3(d): CPU time vs K (n=2, d=2, rho=100)", "K", labels, func(i int) Point {
		p := DefaultPoint()
		p.K = KValues[i]
		return p
	})
}

func fig3e(st Settings) (*Table, error) {
	labels := make([]string, len(DimValues))
	for i, d := range DimValues {
		labels[i] = fmt.Sprintf("d=%d", d)
	}
	return sweepCPU(st, "Fig 3(e): CPU time vs d (K=10, n=2, rho=100)", "d", labels, func(i int) Point {
		p := DefaultPoint()
		p.Dim = DimValues[i]
		return p
	})
}

func fig3f(st Settings) (*Table, error) {
	labels := make([]string, len(DensityValues))
	for i, r := range DensityValues {
		labels[i] = fmt.Sprintf("rho=%g", r)
	}
	return sweepCPU(st, "Fig 3(f): CPU time vs density (K=10, n=2, d=2)", "rho", labels, func(i int) Point {
		p := DefaultPoint()
		p.Density = DensityValues[i]
		return p
	})
}

func fig3g(st Settings) (*Table, error) {
	labels := make([]string, len(SkewValues))
	for i, s := range SkewValues {
		labels[i] = fmt.Sprintf("skew=%g", s)
	}
	return sweepDepths(st, "Fig 3(g): sumDepths vs skewness (K=10, n=2, d=2, rho=100)", "rho1/rho2", labels, func(i int) Point {
		p := DefaultPoint()
		p.Skew = SkewValues[i]
		return p
	})
}

func fig3h(st Settings) (*Table, error) {
	labels := make([]string, len(NValues))
	for i, n := range NValues {
		labels[i] = fmt.Sprintf("n=%d", n)
	}
	return sweepDepths(st, "Fig 3(h): sumDepths vs number of relations (K=10, d=2, rho=100)", "n", labels, func(i int) Point {
		p := DefaultPoint()
		p.N = NValues[i]
		return p
	})
}

func fig3i(st Settings) (*Table, error) {
	t := &Table{
		Title:  "Fig 3(i): sumDepths on city data sets (n=3, K=10)",
		Header: []string{"city", "CBRR(HRJN)", "CBPA(HRJN*)", "TBRR", "TBPA"},
	}
	var cbpaSum, tbpaSum float64
	for _, city := range cities.All() {
		row := []string{city.Code}
		for _, a := range algorithms {
			st1 := st
			st1.Reps = 1 // sumDepths is deterministic per city
			s, err := RunCity(st1, city, a, false)
			if err != nil {
				return nil, err
			}
			row = append(row, depthsCell(s))
			if a == core.CBPA {
				cbpaSum += s.SumDepths
			}
			if a == core.TBPA {
				tbpaSum += s.SumDepths
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("average: TBPA saves %.0f%% of accesses vs CBPA",
		stats.Gain(cbpaSum, tbpaSum)))
	return t, nil
}

func fig3j(st Settings) (*Table, error) {
	labels := make([]string, len(SkewValues))
	for i, s := range SkewValues {
		labels[i] = fmt.Sprintf("skew=%g", s)
	}
	return sweepCPU(st, "Fig 3(j): CPU time vs skewness (K=10, n=2, d=2, rho=100)", "rho1/rho2", labels, func(i int) Point {
		p := DefaultPoint()
		p.Skew = SkewValues[i]
		return p
	})
}

func fig3k(st Settings) (*Table, error) {
	labels := make([]string, len(NValues))
	for i, n := range NValues {
		labels[i] = fmt.Sprintf("n=%d", n)
	}
	return sweepCPU(st, "Fig 3(k): CPU time vs number of relations (K=10, d=2, rho=100)", "n", labels, func(i int) Point {
		p := DefaultPoint()
		p.N = NValues[i]
		return p
	})
}

func fig3l(st Settings) (*Table, error) {
	t := &Table{
		Title:  "Fig 3(l): CPU time on city data sets (n=3, K=10)",
		Header: []string{"city", "CBRR total", "CBPA total", "TBRR total(bound)", "TBPA total(bound)"},
	}
	for _, city := range cities.All() {
		row := []string{city.Code}
		for _, a := range algorithms {
			s, err := RunCity(st, city, a, st.EagerCPU)
			if err != nil {
				return nil, err
			}
			row = append(row, cpuCell(s, a))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
