// Package core implements the ProxRJ template of the paper: rank join
// over n relations where a combination's value aggregates tuple scores,
// distance from the query point, and mutual proximity, answered with as
// little sorted access as the chosen bound allows.
//
// The template has two axes, giving the four algorithm instantiations
// the rest of the repository names cbrr, cbpa, tbrr, and tbpa:
//
//   - The bound. Corner bounds (corner.go) evaluate the aggregation at
//     the corner configurations of the unseen region — cheap,
//     HRJN-style. Tight bounds (tight_distance.go, tight_score.go) solve
//     small quadratic programs (internal/qp) for the exact supremum over
//     the unseen region, instance-optimal in sorted access.
//   - The pulling strategy. Round-robin cycles relations; potential-
//     adaptive pulls the relation whose deepening most reduces the
//     bound.
//
// The Engine (engine.go) owns the pulled prefixes, forms combinations
// incrementally as tuples arrive, and maintains the stopping threshold.
// Enumeration is allocation-free on the hot path: combinations live in
// a rank-slab arena (arena.go) as (slot, score) references with tuples
// reconstructed from prefixes on emission, subtree pruning cuts
// combination formation below the buffer floor, and one output buffer O,
// the session buffer (iterator.go), holds candidates in a min-max heap
// window (internal/pqueue). A batch run's O is a bounded consumer of K
// entries whose floor is the K-th best; an Iterator's window is
// Options.MaxBuffered entries: a bounded consumer drops what it cannot
// return, and an open session (MaxBuffered 0) keeps it in an in-memory
// spill heap. One order, before, ranks every result: score descending,
// ties by ascending ranks.
//
// Iterator (iterator.go) is the ranked-enumeration surface the facade's
// Stream/Query sessions wrap: Next certifies and emits one combination
// at a time — the rank-1 result long before a full run would finish —
// enforces the MaxSumDepths/MaxCombinations caps as ErrIteratorDNF and a
// bounded consumer's MaxBuffered as ErrIteratorPastBound, and DrainBest
// yields the uncertified best-effort tail after a cap. Stats
// carries the paper's cost model (per-relation depths, sumDepths,
// combinations formed/pruned, bound updates, QP solves) for every run.
package core
