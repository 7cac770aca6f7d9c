package core

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// Naive computes the exact top-K by scoring the entire cross product.
// It is the correctness oracle for the ProxRJ algorithms and the "read
// everything" baseline of the paper's motivation: its sumDepths is always
// Σ|R_i|.
func Naive(rels []*relation.Relation, q vec.Vector, fn *agg.EuclideanSum, k int) ([]Combination, error) {
	if len(rels) < 2 {
		return nil, ErrNoRelations
	}
	if k < 1 {
		return nil, ErrBadK
	}
	if fn == nil {
		return nil, ErrNilAggregator
	}
	for _, r := range rels {
		if r.Dim() != q.Dim() {
			return nil, fmt.Errorf("%w: relation %q dim %d, query dim %d", ErrDimMismatch, r.Name, r.Dim(), q.Dim())
		}
	}
	n := len(rels)
	out := newTopK(k)
	tuples := make([]relation.Tuple, n)
	ranks := make([]int, n)
	sigmas := make([]float64, n)
	xs := make([]vec.Vector, n)

	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out.push(Combination{
				Tuples: append([]relation.Tuple(nil), tuples...),
				Ranks:  append([]int(nil), ranks...),
				Score:  fn.Score(q, sigmas, xs),
			})
			return
		}
		for r := 0; r < rels[i].Len(); r++ {
			t := rels[i].At(r)
			tuples[i] = t
			ranks[i] = r
			sigmas[i] = t.Score
			xs[i] = t.Vec
			rec(i + 1)
		}
	}
	rec(0)
	return out.sorted(), nil
}
