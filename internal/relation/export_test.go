package relation

import (
	"hash/fnv"
	"testing"

	"repro/internal/rtree"
)

// Fixtures shared with the external test package (pin_test.go imports
// internal/relfile, which an in-package test cannot).
var (
	TieRelation  = tieRelation
	Dim8Relation = dim8Relation
	Dim4Relation = dim4Relation
	HashSharded  = hashSharded
)

// ShardTree is shard i's R-tree, built on first use as a distance stream
// would build it.
func ShardTree(s *Sharded, i int) *rtree.Tree[int32] { return s.shards[i].rtree() }

// hashSharded splits r into at most n shards by an FNV-1a hash of each
// tuple's ID, which ignores geometry, and assembles them over heap
// columns with AssembleSharded. Each shard spans about the whole space,
// so the rectangles overlap and a merge's heads interleave under
// distance access: the layout Partition's grid boxes never produce, and
// the one a relfile of layout 0 holds.
func hashSharded(t testing.TB, r *Relation, n int) *Sharded {
	t.Helper()
	groups := make([][]int, n)
	for i, tu := range r.tuples {
		h := fnv.New64a()
		h.Write([]byte(tu.ID))
		g := h.Sum64() % uint64(n)
		groups[g] = append(groups[g], i)
	}
	var shards []Columns
	for _, g := range groups {
		if len(g) > 0 {
			shards = append(shards, scoreOrdered(r, g))
		}
	}
	s, err := AssembleSharded(r, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Layout is one way of cutting a relation into shards, by name.
type Layout struct {
	Name    string
	Sharded *Sharded
}

// BothLayouts cuts rel into at most n shards both ways a Sharded can hold
// them: Partition's grid boxes and hashSharded's overlapping shards.
func BothLayouts(t testing.TB, rel *Relation, n int) []Layout {
	t.Helper()
	grid, err := Partition(rel, n)
	if err != nil {
		t.Fatal(err)
	}
	return []Layout{{"grid", grid}, {"overlap", hashSharded(t, rel, n)}}
}
