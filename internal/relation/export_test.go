package relation

// Fixtures shared with the external test package (pin_test.go imports
// internal/relfile, which an in-package test cannot).
var (
	TieRelation  = tieRelation
	Dim8Relation = dim8Relation
)
