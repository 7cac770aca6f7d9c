package vec

import (
	"encoding/binary"
	"math"
	"testing"
)

// vectorsFromBytes decodes a fuzz payload into a query vector and a
// column of dim-matched vectors. The first byte picks the dimension
// (1..4); every following 8-byte window is one float64 component,
// non-finite values clamped into range so the metric domains stay valid.
func vectorsFromBytes(data []byte) (Vector, []Vector) {
	if len(data) < 1 {
		return nil, nil
	}
	dim := int(data[0]%4) + 1
	data = data[1:]
	var comps []float64
	for len(data) >= 8 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		// Keep magnitudes bounded so squared distances stay finite.
		if math.Abs(x) > 1e100 {
			x = math.Mod(x, 1e100)
		}
		comps = append(comps, x)
	}
	if len(comps) < dim*2 {
		return nil, nil
	}
	q := Vector(comps[:dim])
	comps = comps[dim:]
	var vs []Vector
	for len(comps) >= dim {
		vs = append(vs, Vector(comps[:dim]))
		comps = comps[dim:]
	}
	return q, vs
}

func seedCorpus(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	seed := []byte{2}
	for i := 0; i < 12; i++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(i)*1.25-3))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
}

// FuzzDist2Into checks the batched squared-distance kernel against a loop
// of scalar Dist2 calls, requiring bitwise equality.
func FuzzDist2Into(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		q, vs := vectorsFromBytes(data)
		if len(vs) == 0 {
			return
		}
		got := make([]float64, len(vs))
		Dist2Into(got, vs, q)
		for j, v := range vs {
			if want := v.Dist2(q); math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("Dist2Into[%d] = %v, scalar %v", j, got[j], want)
			}
		}
	})
}

// FuzzSubDot checks SubDot against the allocate-then-dot composition.
func FuzzSubDot(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		q, vs := vectorsFromBytes(data)
		for j, v := range vs {
			sd := SubDot(v, q, q)
			if want := v.Sub(q).Dot(q); math.Float64bits(sd) != math.Float64bits(want) {
				t.Fatalf("SubDot[%d] = %v, scalar %v", j, sd, want)
			}
		}
	})
}

// FuzzCosineDistances checks the batched cosine kernel against a loop of
// scalar CosineDistance calls, bitwise.
func FuzzCosineDistances(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		q, vs := vectorsFromBytes(data)
		if len(vs) == 0 {
			return
		}
		got := make([]float64, len(vs))
		CosineDistances(got, vs, q)
		for j, v := range vs {
			if want := (CosineDistance{}).Distance(v, q); math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("batch[%d] = %v, scalar %v", j, got[j], want)
			}
		}
	})
}

// FuzzMeanAccumulate checks that the factored accumulation phase composes
// back to MeanInto (and Mean) bit for bit.
func FuzzMeanAccumulate(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		q, vs := vectorsFromBytes(data)
		if len(vs) == 0 {
			return
		}
		dst := New(len(q))
		copy(dst, vs[0])
		MeanAccumulate(dst, vs[1:])
		dst.ScaleInPlace(1 / float64(len(vs)))
		want := Mean(vs...)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("composed mean %v, Mean %v", dst, want)
			}
		}
	})
}
