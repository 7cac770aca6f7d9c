package core

import "sort"

// PartialBound describes one partial combination's contribution to the
// tight bound, for diagnostics and for regenerating the paper's Table 3.
type PartialBound struct {
	// TupleIDs are the IDs of the seen tuples, in member-relation order;
	// empty for the empty partial ⟨⟩.
	TupleIDs []string
	// Bound is t(τ), freshly computed against the current distance
	// constraints.
	Bound float64
}

// SubsetBound describes one proper subset M of relations.
type SubsetBound struct {
	// Members are the relation indices in M (ascending; empty for ∅).
	Members []int
	// TM is t_M = max over live partials (−Inf when PC(M) is empty or the
	// subset cannot complete).
	TM float64
	// Valid reports whether M can still describe an unseen combination.
	Valid bool
	// Partials lists every tracked partial of PC(M).
	Partials []PartialBound
}

// TightBoundBreakdown exposes the per-subset state of the tight
// bounding scheme (distance access). ok is false when the engine runs a
// different bounding scheme. Every partial's bound is solved afresh
// against the current distance constraints, leaving the cached bounds as
// they were; this is a diagnostic call and its QP work is excluded from
// the engine's cost statistics.
func (e *Engine) TightBoundBreakdown() (subsets []SubsetBound, ok bool) {
	b, isTight := e.bound.(*tightDistBounder)
	if !isTight {
		return nil, false
	}
	savedQP := e.stats.QPSolves
	defer func() { e.stats.QPSolves = savedQP }()

	for mask, ss := range b.subsets {
		sb := SubsetBound{
			Members: append([]int(nil), b.members[mask]...),
			Valid:   b.completes(mask) && len(ss.partials) > 0,
			TM:      negInf,
		}
		for id := range ss.partials {
			bound := b.computeBound(mask, id)
			sb.Partials = append(sb.Partials, PartialBound{TupleIDs: b.tupleIDs(mask, id), Bound: bound})
			if bound > sb.TM {
				sb.TM = bound
			}
		}
		subsets = append(subsets, sb)
	}
	sort.Slice(subsets, func(i, j int) bool {
		if len(subsets[i].Members) != len(subsets[j].Members) {
			return len(subsets[i].Members) < len(subsets[j].Members)
		}
		for k := range subsets[i].Members {
			if subsets[i].Members[k] != subsets[j].Members[k] {
				return subsets[i].Members[k] < subsets[j].Members[k]
			}
		}
		return false
	})
	return subsets, true
}

// tupleIDs names partial id of M by the tuples its ranks point at, in
// member order.
func (b *tightDistBounder) tupleIDs(mask, id int) []string {
	members := b.members[mask]
	ids := make([]string, len(members))
	for k, r := range b.subsets[mask].ranks.ranksAt(int32(id)) {
		ids[k] = b.e.rels[members[k]].tuples[r].ID
	}
	return ids
}

// StepForTest pulls one tuple from relation ri; exported for harnesses
// that need to drive the engine to a specific state (e.g. regenerating
// the paper's Table 3 at depth (2,2,2)).
func (e *Engine) StepForTest(ri int) error { return e.step(ri) }
