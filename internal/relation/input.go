package relation

import (
	"fmt"

	"repro/internal/vec"
)

// Input is anything the rank-join engine can read a relation from: a
// plain *Relation or a *Sharded partitioned relation. The openSource
// method is unexported, so only this package's types satisfy the
// contract — a foreign implementation could not uphold the canonical
// (key, ordinal) ordering the merge layer depends on.
type Input interface {
	// InputRelation returns the logical relation being queried (the parent
	// relation for sharded inputs), carrying σ_max and metadata.
	InputRelation() *Relation
	// openSource builds one ordered stream for the given access
	// configuration, over whichever access path the input owns.
	openSource(kind AccessKind, q vec.Vector, metric vec.Metric) (Source, error)
}

// InputRelation implements Input: a relation is its own logical relation.
func (r *Relation) InputRelation() *Relation { return r }

// openSource implements Input for a plain relation: a one-shard run over
// the relation as it stands. It owns no index, so a distance stream is a
// full sort; a score stream is a cursor over score-ordered columns, which
// a relation that was never partitioned or indexed has to sort first.
func (r *Relation) openSource(kind AccessKind, q vec.Vector, metric vec.Metric) (Source, error) {
	if r.IsStub() {
		return nil, fmt.Errorf("relation %q: cannot open a local source over a remote stub", r.Name)
	}
	if kind == ScoreAccess {
		return NewScoreSource(r), nil
	}
	one := [1]shard{{rel: r, cols: (*storageOrder)(r)}}
	return openOne(one[:], kind, q, metric, false)
}

// OpenSource builds the ordered stream of in for one access
// configuration: the score order when kind is ScoreAccess, otherwise a
// distance order from q under metric (nil = Euclidean). The access path
// follows from the input, not from a knob. An input that owns an index —
// a *Sharded, whose shards carry the R-trees Partition built or build
// them on first use over a relfile; likewise an RTreeIndex through its
// own Source method — streams incremental nearest-neighbor traversals
// under the Euclidean metric. A plain *Relation owns none and is sorted
// in full on every call. The R-tree orders by Euclidean distance only, so
// any other metric sorts, whatever the input. Every path emits the same
// canonical sequence; sharded inputs return a merged stream over their
// shards.
func OpenSource(in Input, kind AccessKind, q vec.Vector, metric vec.Metric) (Source, error) {
	return in.openSource(kind, q, metric)
}
