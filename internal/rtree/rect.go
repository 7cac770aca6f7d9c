package rtree

import (
	"fmt"

	"repro/internal/vec"
)

// Rect is an axis-aligned hyperrectangle (minimum bounding rectangle). The
// tree stores its boxes in flat slabs; a Rect is a view of one of them.
type Rect struct {
	Min, Max vec.Vector
}

// NewRect validates and returns a rectangle.
func NewRect(min, max vec.Vector) (Rect, error) {
	if min.Dim() != max.Dim() {
		return Rect{}, fmt.Errorf("rtree: min dim %d != max dim %d", min.Dim(), max.Dim())
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("rtree: min[%d]=%v > max[%d]=%v", i, min[i], i, max[i])
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}, nil
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p vec.Vector) bool {
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// MinDist2 returns the squared Euclidean distance from p to the closest
// point of r (zero when p is inside). This is the standard R-tree NN
// pruning bound. Rounding is monotone in every term, so the bound never
// exceeds the computed squared distance from p to a point inside r.
func (r Rect) MinDist2(p vec.Vector) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Min[i]:
			d := r.Min[i] - p[i]
			s += d * d
		case p[i] > r.Max[i]:
			d := p[i] - r.Max[i]
			s += d * d
		}
	}
	return s
}
