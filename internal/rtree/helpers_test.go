package rtree

import (
	"fmt"

	"repro/internal/vec"
)

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

// KNearest returns the k closest points to q with their squared distances
// (fewer if the tree is smaller).
func (t *Tree[T]) KNearest(q vec.Vector, k int) (values []T, dists []float64) {
	it := t.NearestNeighbors(q)
	for len(values) < k {
		v, d, ok := it.Next()
		if !ok {
			break
		}
		values = append(values, v)
		dists = append(dists, d)
	}
	return values, dists
}
