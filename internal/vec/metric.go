package vec

import "math"

// Metric is a distance function on R^d. Implementations must satisfy the
// metric axioms on their stated domain; CosineDistance is a metric only on
// the unit sphere (it is used there by the cosine-proximity extension).
type Metric interface {
	// Distance returns the distance between a and b.
	Distance(a, b Vector) float64
	// Name identifies the metric in reports and CLI flags.
	Name() string
}

// Euclidean is the L2 metric, the paper's reference distance.
type Euclidean struct{}

// Distance implements Metric.
func (Euclidean) Distance(a, b Vector) float64 { return a.Dist(b) }

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 metric. Provided for access-layer generality; the
// tight bounding scheme is specialized to Euclidean geometry only.
type Manhattan struct{}

// Distance implements Metric.
func (Manhattan) Distance(a, b Vector) float64 {
	a.mustMatch(b)
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Chebyshev is the L∞ metric.
type Chebyshev struct{}

// Distance implements Metric.
func (Chebyshev) Distance(a, b Vector) float64 {
	a.mustMatch(b)
	var s float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > s {
			s = d
		}
	}
	return s
}

// Name implements Metric.
func (Chebyshev) Name() string { return "chebyshev" }

// CosineDistance is 1 − cos(a,b), the dissimilarity named as future work in
// the paper's conclusion. Zero vectors are conventionally at distance 1 from
// everything (no direction information).
type CosineDistance struct{}

// Distance implements Metric.
func (CosineDistance) Distance(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
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

// Name implements Metric.
func (CosineDistance) Name() string { return "cosine" }
