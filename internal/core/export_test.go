package core

import "repro/internal/qp"

// qpSolve14 re-exports the QP entry point for white-box tests.
func qpSolve14(wq, wmu float64, fixed, lower []float64) ([]float64, error) {
	sol, err := qp.Solve14(wq, wmu, fixed, lower)
	if err != nil {
		return nil, err
	}
	return sol.Unseen, nil
}

// lastScore is σ(R_i[p_i]), σ_max before the first pull: the score the
// reference bounders derive an unseen cap from, where the engine reads
// the cached lastTerm.
func (r *relState) lastScore() float64 {
	if len(r.tuples) == 0 {
		return r.src.Relation().MaxScore
	}
	return r.tuples[len(r.tuples)-1].Score
}
