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
	openSource(kind AccessKind, q vec.Vector) (Source, error)
}

// InputRelation implements Input: a relation is its own logical relation.
func (r *Relation) InputRelation() *Relation { return r }

// openSource implements Input for a plain relation: a one-shard run over
// the relation as it stands. It owns no index, so a distance stream is a
// scan and a score stream a cursor over columns it sorts first.
func (r *Relation) openSource(kind AccessKind, q vec.Vector) (Source, error) {
	if r.IsStub() {
		return nil, fmt.Errorf("relation %q: cannot open a local source over a remote stub", r.Name)
	}
	sh := &shard{rel: r, cols: (*storageOrder)(r)}
	if kind == ScoreAccess {
		sh.cols = scoreOrdered(r, wholeGroup(len(r.tuples)))
	}
	return sh.open(kind, q, false)
}

// OpenSource builds the ordered stream of in for one access
// configuration, and is the one way to open one: the score order when
// kind is ScoreAccess, otherwise the Euclidean distance order from q. The
// access path follows from the input, not from a knob. A *Sharded owns
// its indexes — the R-trees Partition built, or a relfile's, built on
// first use — and streams incremental nearest-neighbor traversals; an
// index built once over a whole relation is a one-shard Partition. A
// plain *Relation owns none, and neither does a shard of dimension 8 and
// up with at most autoShardTarget tuples: their distance streams scan the vectors,
// keying every tuple once and sorting the keys in growing rounds. Every
// path emits the same canonical sequence; a sharded input returns a
// merged stream over its shards. Safe for concurrent use.
func OpenSource(in Input, kind AccessKind, q vec.Vector) (Source, error) {
	return in.openSource(kind, q)
}
