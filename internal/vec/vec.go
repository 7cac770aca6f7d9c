// Package vec provides small dense real vectors and the geometric
// primitives used throughout the proximity rank join library: distances,
// centroids, projections onto rays, and norm manipulation.
//
// Vectors are plain []float64 values wrapped in the Vector type so that
// geometric intent is visible in signatures. All operations treat their
// receivers as immutable unless the name says otherwise (suffix InPlace).
package vec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vector is a point (or displacement) in R^d.
type Vector []float64

// ErrDimMismatch is returned or caused to panic when two vectors of
// different dimensionality are combined.
var ErrDimMismatch = errors.New("vec: dimension mismatch")

// New returns a zero vector of dimension d.
func New(d int) Vector {
	if d < 0 {
		panic("vec: negative dimension")
	}
	return make(Vector, d)
}

// Of builds a vector from the given components.
func Of(xs ...float64) Vector {
	v := make(Vector, len(xs))
	copy(v, xs)
	return v
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Equal reports whether v and w are component-wise identical.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether v and w agree within tol in every component.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func (v Vector) mustMatch(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	v.mustMatch(w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	v.mustMatch(w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns s * v.
func (v Vector) Scale(s float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// AddInPlace sets v = v + w and returns v.
func (v Vector) AddInPlace(w Vector) Vector {
	v.mustMatch(w)
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// ScaleInPlace sets v = s*v and returns v.
func (v Vector) ScaleInPlace(s float64) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
}

// AddScaled returns v + s*w without mutating either operand.
func (v Vector) AddScaled(s float64, w Vector) Vector {
	v.mustMatch(w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + s*w[i]
	}
	return out
}

// Dot returns the inner product vᵀw.
func (v Vector) Dot(w Vector) float64 {
	v.mustMatch(w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm ‖v‖².
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖.
func (v Vector) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Dist returns the Euclidean distance ‖v−w‖.
func (v Vector) Dist(w Vector) float64 { return math.Sqrt(v.Dist2(w)) }

// Dist2 returns the squared Euclidean distance ‖v−w‖².
func (v Vector) Dist2(w Vector) float64 {
	v.mustMatch(w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Unit returns v/‖v‖ and true, or a zero vector and false when ‖v‖ is
// numerically zero (no direction is defined).
func (v Vector) Unit() (Vector, bool) {
	n := v.Norm()
	if n < 1e-300 {
		return New(len(v)), false
	}
	return v.Scale(1 / n), true
}

// Mean returns the arithmetic mean of the given vectors. It panics if the
// list is empty or dimensions disagree. For the squared-Euclidean scoring
// geometry of the paper this is the combination centroid µ(τ).
func Mean(vs ...Vector) Vector {
	if len(vs) == 0 {
		panic("vec: mean of no vectors")
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		out.AddInPlace(v)
	}
	return out.ScaleInPlace(1 / float64(len(vs)))
}

// MeanInto computes the arithmetic mean of the given vectors into dst
// (len(dst) must match their dimension) and returns dst. It performs the
// exact floating-point operation sequence of Mean, so the two agree
// bit-for-bit; the only difference is that the caller supplies the
// destination, which lets per-combination scoring run allocation-free.
func MeanInto(dst Vector, vs []Vector) Vector {
	if len(vs) == 0 {
		panic("vec: mean of no vectors")
	}
	dst.mustMatch(vs[0])
	copy(dst, vs[0])
	for _, v := range vs[1:] {
		dst.AddInPlace(v)
	}
	return dst.ScaleInPlace(1 / float64(len(vs)))
}

// String renders v as "[x1 x2 …]" with compact float formatting.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
	}
	b.WriteByte(']')
	return b.String()
}

// Parse parses a vector in the form "x1,x2,…" (or with spaces/semicolons).
func Parse(s string) (Vector, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ';' || r == ' ' || r == '\t'
	})
	if len(fields) == 0 {
		return nil, errors.New("vec: empty vector literal")
	}
	v := make(Vector, len(fields))
	for i, f := range fields {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("vec: bad component %q: %w", f, err)
		}
		v[i] = x
	}
	return v, nil
}

// IsFinite reports whether every component of v is finite.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
