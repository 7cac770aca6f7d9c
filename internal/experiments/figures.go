package experiments

import (
	"fmt"

	"repro/internal/cities"
	"repro/internal/core"
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

// metric is what a Figure 3 panel plots for each algorithm.
type metric int

const (
	sumDepths metric = iota // tuples accessed, the I/O panels
	cpuTime                 // total CPU time with its bound-update share
)

// panel is one Figure 3 panel: a sweep over one axis of Table 2, or over
// the five city data sets when axis is nil, plotting one metric.
type panel struct {
	id, title, heading string
	axis               *axis
	metric             metric
}

// panels is Figure 3 in paper order.
var panels = []panel{
	{"3a", "Fig 3(a): sumDepths vs number of top results K", "Fig 3(a): sumDepths vs K (n=2, d=2, rho=100)", &kAxis, sumDepths},
	{"3b", "Fig 3(b): sumDepths vs number of dimensions d", "Fig 3(b): sumDepths vs d (K=10, n=2, rho=100)", &dimAxis, sumDepths},
	{"3c", "Fig 3(c): sumDepths vs density rho", "Fig 3(c): sumDepths vs density (K=10, n=2, d=2)", &densityAxis, sumDepths},
	{"3d", "Fig 3(d): total CPU time vs K (with bound fraction)", "Fig 3(d): CPU time vs K (n=2, d=2, rho=100)", &kAxis, cpuTime},
	{"3e", "Fig 3(e): total CPU time vs d (with bound fraction)", "Fig 3(e): CPU time vs d (K=10, n=2, rho=100)", &dimAxis, cpuTime},
	{"3f", "Fig 3(f): total CPU time vs rho (with bound fraction)", "Fig 3(f): CPU time vs density (K=10, n=2, d=2)", &densityAxis, cpuTime},
	{"3g", "Fig 3(g): sumDepths vs skewness rho1/rho2", "Fig 3(g): sumDepths vs skewness (K=10, n=2, d=2, rho=100)", &skewAxis, sumDepths},
	{"3h", "Fig 3(h): sumDepths vs number of relations n", "Fig 3(h): sumDepths vs number of relations (K=10, d=2, rho=100)", &nAxis, sumDepths},
	{"3i", "Fig 3(i): sumDepths on the five city data sets", "Fig 3(i): sumDepths on city data sets (n=3, K=10)", nil, sumDepths},
	{"3j", "Fig 3(j): total CPU time vs skewness", "Fig 3(j): CPU time vs skewness (K=10, n=2, d=2, rho=100)", &skewAxis, cpuTime},
	{"3k", "Fig 3(k): total CPU time vs number of relations n", "Fig 3(k): CPU time vs number of relations (K=10, d=2, rho=100)", &nAxis, cpuTime},
	{"3l", "Fig 3(l): total CPU time on the five city data sets", "Fig 3(l): CPU time on city data sets (n=3, K=10)", nil, cpuTime},
}

// Registry returns all figure runners in paper order.
func Registry() []Figure {
	reg := make([]Figure, 0, len(panels)+3)
	for _, p := range panels {
		reg = append(reg, Figure{ID: p.id, Title: p.title, Run: p.run})
	}
	return append(reg,
		Figure{ID: "t1", Title: "Table 1: worked-example combination scores", Run: table1},
		Figure{ID: "t2", Title: "Table 2: operating parameter grid", Run: table2},
		Figure{ID: "t3", Title: "Table 3: partial combinations and tight bounds", Run: table3},
	)
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

// run renders the panel: one row per point of its sweep, one column per
// algorithm.
func (p panel) run(st Settings) (*Table, error) {
	t := &Table{Title: p.heading}
	var labels []string
	var point func(i int, a core.Algorithm) (Summary, error)
	eager := p.metric == cpuTime && st.EagerCPU
	if p.axis != nil {
		t.Header = []string{p.axis.column}
		for _, v := range p.axis.values {
			labels = append(labels, fmt.Sprintf("%s=%g", p.axis.label, v))
		}
		point = func(i int, a core.Algorithm) (Summary, error) {
			return RunSyntheticPoint(st, p.axis.point(p.axis.values[i]), a, eager)
		}
	} else {
		t.Header = []string{"city"}
		all := cities.All()
		for _, c := range all {
			labels = append(labels, c.Code)
		}
		cst := st
		if p.metric == sumDepths {
			cst.Reps = 1 // sumDepths is deterministic per city
		}
		point = func(i int, a core.Algorithm) (Summary, error) { return RunCity(cst, all[i], a, eager) }
	}
	if p.metric == sumDepths {
		t.Header = append(t.Header, "CBRR(HRJN)", "CBPA(HRJN*)", "TBRR", "TBPA")
	} else {
		t.Header = append(t.Header, "CBRR total", "CBPA total", "TBRR total(bound)", "TBPA total(bound)")
	}

	// cbpa and tbpa are the last row's sumDepths on a synthetic sweep and
	// their sums over the cities.
	var cbpa, tbpa float64
	for i, label := range labels {
		row := []string{label}
		if p.axis != nil {
			cbpa, tbpa = 0, 0
		}
		for _, a := range algorithms {
			s, err := point(i, a)
			if err != nil {
				return nil, err
			}
			if p.metric == cpuTime {
				row = append(row, cpuCell(s, a))
				continue
			}
			row = append(row, depthsCell(s))
			switch a {
			case core.CBPA:
				cbpa += s.SumDepths
			case core.TBPA:
				tbpa += s.SumDepths
			}
		}
		t.Rows = append(t.Rows, row)
	}
	switch {
	case p.metric == cpuTime && p.axis != nil:
		t.Notes = append(t.Notes, "parenthesized value: time updating the bound, Stats.BoundTime (lighter stacked bar in the paper)")
	case p.metric == sumDepths && p.axis == nil:
		t.Notes = append(t.Notes, fmt.Sprintf("average: TBPA saves %.0f%% of accesses vs CBPA", gain(cbpa, tbpa)))
	case p.metric == sumDepths && cbpa > 0:
		t.Notes = append(t.Notes, fmt.Sprintf("last row: TBPA saves %.0f%% of accesses vs CBPA", gain(cbpa, tbpa)))
	}
	return t, nil
}

// gain returns the relative improvement of b over a in percent, where
// smaller is better: 100·(a−b)/a.
func gain(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (a - b) / a
}

// dnfCell renders one point's cell: v is the mean over the repetitions
// that finished, so a point where some did not says how many — a bare
// mean of the survivors would read as a cheaper join — and a point where
// none did reads DNF.
func dnfCell(s Summary, v string) string {
	switch {
	case s.DNFs == s.Runs:
		return "DNF"
	case s.DNFs > 0:
		return fmt.Sprintf("%s (%d/%d DNF)", v, s.DNFs, s.Runs)
	}
	return v
}

// depthsCell is a cell of the sumDepths panels.
func depthsCell(s Summary) string { return dnfCell(s, cell(s.SumDepths)) }

// cpuCell is a cell of the CPU panels: total time, with the share spent
// updating the bound (Stats.BoundTime) in parentheses for the tight-bound
// algorithms.
func cpuCell(s Summary, a core.Algorithm) string {
	v := secCell(s.TotalSeconds)
	if a.Bound() == core.TightBound {
		v = fmt.Sprintf("%s(%s)", v, secCell(s.BoundSeconds))
	}
	return dnfCell(s, v)
}
