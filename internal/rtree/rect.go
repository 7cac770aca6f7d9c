package rtree

import "repro/internal/vec"

// Rect is an axis-aligned hyperrectangle (minimum bounding rectangle). The
// tree stores its boxes in flat slabs; a Rect is a view of one of them.
type Rect struct {
	Min, Max vec.Vector
}

// MinDist2 returns the squared Euclidean distance from p to the closest
// point of r (zero when p is inside). This is the standard R-tree NN
// pruning bound. Rounding is monotone in every term, so the bound never
// exceeds the computed squared distance from p to a point inside r.
//
// Each axis adds the square of max(lo−x, x−hi, 0), without a branch: at
// most one of the differences is positive on a box with lo ≤ hi, and a
// zero term leaves the sum's bits as they are, so the value is the one a
// sum over only the axes p lies outside of gives.
func (r Rect) MinDist2(p vec.Vector) float64 {
	lo, hi := r.Min[:len(p)], r.Max[:len(p)]
	var s float64
	for i, x := range p {
		d := max(lo[i]-x, x-hi[i], 0)
		s += d * d
	}
	return s
}
