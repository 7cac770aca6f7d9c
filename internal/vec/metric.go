package vec

// Metric is a distance function on R^d. The one distance the library
// orders and scores by is Euclidean (Vector.Dist); Metric remains only as
// the type of relation.Sharded.ShardSource's ignored metric argument,
// which callers outside this module still pass.
type Metric interface {
	// Distance returns the distance between a and b.
	Distance(a, b Vector) float64
}
