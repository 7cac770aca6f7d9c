package relation

import "repro/internal/rtree"

// Fixtures shared with the external test package (pin_test.go imports
// internal/relfile, which an in-package test cannot).
var (
	TieRelation  = tieRelation
	Dim8Relation = dim8Relation
	Dim4Relation = dim4Relation
)

// ShardTree is shard i's R-tree, built on first use as a distance stream
// would build it.
func ShardTree(s *Sharded, i int) *rtree.Tree[int32] { return s.shards[i].rtree() }
