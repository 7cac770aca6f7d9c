package lp

import "fmt"

// FeasibleHalfSpaces reports whether the polyhedron {y ∈ R^d : G·y ≤ h}
// is non-empty. G has one row per half-space; d is small (the feature
// space dimension) while len(G) can be large, so the decision is made on
// the dual program with only d+1 equality rows (see the package comment).
func FeasibleHalfSpaces(g [][]float64, h []float64) (bool, error) {
	u := len(g)
	if len(h) != u {
		return false, fmt.Errorf("lp: %d half-spaces but %d offsets", u, len(h))
	}
	if u == 0 {
		return true, nil
	}
	d := len(g[0])
	for i, row := range g {
		if len(row) != d {
			return false, fmt.Errorf("lp: half-space %d has dim %d, want %d", i, len(row), d)
		}
	}
	// Dual: minimize hᵀλ s.t. Gᵀλ = 0 (d rows), Σλ = 1, λ ≥ 0.
	a := make([][]float64, d+1)
	for r := 0; r < d; r++ {
		a[r] = make([]float64, u)
		for j := 0; j < u; j++ {
			a[r][j] = g[j][r]
		}
	}
	ones := make([]float64, u)
	for j := range ones {
		ones[j] = 1
	}
	a[d] = ones
	b := make([]float64, d+1)
	b[d] = 1

	_, val, status, err := SolveStandard(a, b, h)
	if err != nil {
		return false, err
	}
	switch status {
	case Infeasible:
		// No Farkas combination exists at all: the primal is feasible
		// (indeed unbounded in the t-relaxation).
		return true, nil
	case Unbounded:
		// hᵀλ unbounded below on the dual ⇒ a certificate with arbitrarily
		// negative value exists ⇒ primal infeasible.
		return false, nil
	default:
		// Primal min t = −val: feasible iff val ≥ 0 (within tolerance; ties
		// mean the region is a degenerate but non-empty face).
		return val >= -1e-9, nil
	}
}
