package vec

// Metric is a distance function on R^d. Implementations must satisfy the
// metric axioms on their stated domain; CosineDistance is a metric only on
// the unit sphere (it is used there by the cosine-proximity extension).
type Metric interface {
	// Distance returns the distance between a and b.
	Distance(a, b Vector) float64
}

// Euclidean is the L2 metric, the paper's reference distance.
type Euclidean struct{}

// Distance implements Metric.
func (Euclidean) Distance(a, b Vector) float64 { return a.Dist(b) }

// CosineDistance is 1 − cos(a,b), the dissimilarity named as future work in
// the paper's conclusion. Zero vectors are conventionally at distance 1 from
// everything (no direction information).
type CosineDistance struct{}

// Distance implements Metric.
func (CosineDistance) Distance(a, b Vector) float64 {
	return cosineDistanceWith(a, b, b.Norm())
}

// cosineDistanceWith is CosineDistance.Distance with b's norm precomputed.
func cosineDistanceWith(a, b Vector, nb float64) float64 {
	na := a.Norm()
	if na < 1e-300 || nb < 1e-300 {
		return 1
	}
	c := a.Dot(b) / (na * nb)
	// Clamp against rounding outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return 1 - c
}
