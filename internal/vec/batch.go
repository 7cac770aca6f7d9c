package vec

// Batch kernels over columns of vectors.
//
// The scoring hot path of the engine evaluates blocks of candidate
// combinations at a time; these kernels turn its per-element geometric
// primitives into single passes over a column block. Every kernel
// replays the exact floating-point operation sequence of its scalar
// counterpart element by element, so batch results are bit-identical to
// a loop of scalar calls — the property the engine's byte-identity
// contract rests on (and the one the package fuzz targets check).
//
// The loops hoist the dimension into a local and slice every operand to
// that length up front, which lets the compiler eliminate the per-element
// bounds checks.

// Dist2Into sets dst[j] = vs[j].Dist2(q) for every j. dst must have
// len(vs); every vector must match q's dimension.
func Dist2Into(dst []float64, vs []Vector, q Vector) {
	d := len(q)
	_ = dst[:len(vs)]
	for j, v := range vs {
		v.mustMatch(q)
		v = v[:d]
		var s float64
		for i, x := range v {
			diff := x - q[i]
			s += diff * diff
		}
		dst[j] = s
	}
}

// Dist2Slab sets dst[j] to the squared distance from q to the j-th vector
// of slab, which holds len(dst) vectors of len(q) coordinates each, one
// after another: Dist2Into over a slab of vectors instead of a slice of
// them. Four vectors go at a time, on four independent sums; each sum
// still starts at zero and adds d·d in coordinate order, as Dist2 does,
// so every value has its bits.
func Dist2Slab(dst, slab []float64, q Vector) {
	dim := len(q)
	slab = slab[:len(dst)*dim]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		p0 := slab[j*dim:][:dim]
		p1 := slab[(j+1)*dim:][:dim]
		p2 := slab[(j+2)*dim:][:dim]
		p3 := slab[(j+3)*dim:][:dim]
		var s0, s1, s2, s3 float64
		for i, x := range q {
			a, b, c, d := p0[i]-x, p1[i]-x, p2[i]-x, p3[i]-x
			s0 += a * a
			s1 += b * b
			s2 += c * c
			s3 += d * d
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < len(dst); j++ {
		p := slab[j*dim:][:dim]
		var s float64
		for i, x := range q {
			d := p[i] - x
			s += d * d
		}
		dst[j] = s
	}
}

// SubDot returns (a − b)·w without materializing the difference: the
// addition order matches a.Sub(b).Dot(w), so the result is bit-identical.
func SubDot(a, b, w Vector) float64 {
	a.mustMatch(b)
	a.mustMatch(w)
	var s float64
	for i, x := range a {
		s += (x - b[i]) * w[i]
	}
	return s
}

// SubInto sets dst = a − b (all three of one dimension) and returns dst.
// Bit-identical to a.Sub(b) with a caller-owned destination.
func SubInto(dst, a, b Vector) Vector {
	a.mustMatch(b)
	dst.mustMatch(a)
	for i, x := range a {
		dst[i] = x - b[i]
	}
	return dst
}

// AddScaledInto sets dst = v + s*w and returns dst. Bit-identical to
// v.AddScaled(s, w) with a caller-owned destination.
func AddScaledInto(dst Vector, v Vector, s float64, w Vector) Vector {
	v.mustMatch(w)
	dst.mustMatch(v)
	for i, x := range v {
		dst[i] = x + s*w[i]
	}
	return dst
}

// MeanAccumulate adds each vector of vs into acc in order and returns
// acc. It is the accumulation phase of Mean/MeanInto factored out, so a
// caller can build centroid prefix sums incrementally: MeanInto(dst, vs)
// equals copy(dst, vs[0]); MeanAccumulate(dst, vs[1:]); dst.ScaleInPlace
// (1/len(vs)) bit for bit.
func MeanAccumulate(acc Vector, vs []Vector) Vector {
	d := len(acc)
	for _, v := range vs {
		acc.mustMatch(v)
		v = v[:d]
		for i, x := range v {
			acc[i] += x
		}
	}
	return acc
}
