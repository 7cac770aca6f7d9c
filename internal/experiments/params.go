// Package experiments reproduces the paper's experimental study (§4 and
// Figure 3). Each figure has a runner that sweeps one operating parameter
// of Table 2 while holding the others at their defaults, executes the four
// ProxRJ instantiations over seeded data sets, and renders the same
// series the paper plots.
package experiments

import "repro/internal/core"

// axis is one operating parameter of Table 2: the values the paper
// tests, each set on DefaultPoint() in turn.
type axis struct {
	name   string // Table 2's row
	column string // the sweep table's first heading
	label  string // a row label is label=value
	values []float64
	set    func(p *Point, v float64)
}

// Table 2 — operating parameters (defaults in bold in the paper).
var (
	kAxis = axis{"number of results K", "K", "K", []float64{1, 10, 50},
		func(p *Point, v float64) { p.K = int(v) }}
	dimAxis = axis{"number of dimensions d", "d", "d", []float64{1, 2, 4, 8, 16},
		func(p *Point, v float64) { p.Dim = int(v) }}
	densityAxis = axis{"density rho", "rho", "rho", []float64{20, 50, 100, 200},
		func(p *Point, v float64) { p.Density = v }}
	skewAxis = axis{"skewness rho1/rho2", "rho1/rho2", "skew", []float64{1, 2, 4, 8},
		func(p *Point, v float64) { p.Skew = v }}
	nAxis = axis{"number of relations n", "n", "n", []float64{2, 3, 4},
		func(p *Point, v float64) { p.N = int(v) }}
)

// point is DefaultPoint() with this axis at v.
func (a *axis) point(v float64) Point {
	p := DefaultPoint()
	a.set(&p, v)
	return p
}

// Point is one synthetic operating point.
type Point struct {
	K       int
	N       int
	Dim     int
	Density float64
	Skew    float64
}

// DefaultPoint returns Table 2's bold defaults.
func DefaultPoint() Point {
	return Point{K: 10, N: 2, Dim: 2, Density: 100, Skew: 1}
}

// Settings control experiment execution (not the problem itself).
type Settings struct {
	// Reps is the number of seeded data sets averaged per point (paper:
	// 10); zero runs one.
	Reps int
	// BaseTuples is the per-relation size of an unskewed relation.
	BaseTuples int
	// MaxSumDepths and MaxCombinations are the DNF guards; the paper
	// reports CBPA as unable to finish at n = 4 and we reproduce that as a
	// capped DNF rather than a five-minute wall-clock timeout.
	MaxSumDepths    int
	MaxCombinations int64
	// EagerCPU selects the paper-faithful eager bound recomputation for
	// the CPU-time figures (sumDepths figures are schedule-invariant).
	EagerCPU bool
	// Seed offsets the per-rep seeds, so independent suites can use
	// disjoint data.
	Seed int64
}

// DefaultSettings mirror the paper's methodology.
func DefaultSettings() Settings {
	return Settings{
		Reps:            10,
		BaseTuples:      400,
		MaxSumDepths:    4000,
		MaxCombinations: 2_000_000,
		EagerCPU:        true,
	}
}

// QuickSettings run the same experiments at reduced repetition for smoke
// tests and benchmarks.
func QuickSettings() Settings {
	s := DefaultSettings()
	s.Reps = 3
	s.BaseTuples = 250
	s.MaxSumDepths = 1500
	s.MaxCombinations = 400_000
	return s
}

// algorithms in paper presentation order.
var algorithms = []core.Algorithm{core.CBRR, core.CBPA, core.TBRR, core.TBPA}
