package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndDim(t *testing.T) {
	v := New(4)
	if v.Dim() != 4 {
		t.Fatalf("Dim = %d, want 4", v.Dim())
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("component %d = %v, want 0", i, x)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestOfCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	v := Of(src...)
	src[0] = 99
	if v[0] != 1 {
		t.Fatal("Of did not copy its arguments")
	}
}

func TestAddSubScale(t *testing.T) {
	a := Of(1, 2, 3)
	b := Of(4, 5, 6)
	if got := a.Add(b); !got.Equal(Of(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(Of(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(-2); !got.Equal(Of(-2, -4, -6)) {
		t.Errorf("Scale = %v", got)
	}
	// Originals untouched.
	if !a.Equal(Of(1, 2, 3)) || !b.Equal(Of(4, 5, 6)) {
		t.Error("operands mutated")
	}
}

func TestAddScaled(t *testing.T) {
	a := Of(1, 1)
	b := Of(2, -2)
	if got := a.AddScaled(0.5, b); !got.Equal(Of(2, 0)) {
		t.Errorf("AddScaled = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Of(1, 2)
	a.AddInPlace(Of(3, 4))
	if !a.Equal(Of(4, 6)) {
		t.Errorf("AddInPlace = %v", a)
	}
	a.ScaleInPlace(0.5)
	if !a.Equal(Of(2, 3)) {
		t.Errorf("ScaleInPlace = %v", a)
	}
}

func TestDotNormDist(t *testing.T) {
	a := Of(3, 4)
	if a.Norm() != 5 {
		t.Errorf("Norm = %v", a.Norm())
	}
	if a.Norm2() != 25 {
		t.Errorf("Norm2 = %v", a.Norm2())
	}
	b := Of(0, 0)
	if a.Dist(b) != 5 || a.Dist2(b) != 25 {
		t.Errorf("Dist = %v Dist2 = %v", a.Dist(b), a.Dist2(b))
	}
	if got := a.Dot(Of(1, 1)); got != 7 {
		t.Errorf("Dot = %v", got)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Add did not panic")
		}
	}()
	Of(1).Add(Of(1, 2))
}

func TestUnit(t *testing.T) {
	u, ok := Of(0, 3).Unit()
	if !ok || !u.ApproxEqual(Of(0, 1), 1e-15) {
		t.Errorf("Unit = %v ok=%v", u, ok)
	}
	z, ok := Of(0, 0).Unit()
	if ok {
		t.Errorf("Unit of zero vector reported ok, got %v", z)
	}
}

func TestMean(t *testing.T) {
	m := Mean(Of(0, 0), Of(2, 2), Of(4, -2))
	if !m.ApproxEqual(Of(2, 0), 1e-15) {
		t.Errorf("Mean = %v", m)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean() did not panic")
		}
	}()
	Mean()
}

// TestProjectOntoRay: SubDot(x, q, u) is the paper's P(x(τ_i)) operator
// (eq. 13), the scalar length of the orthogonal projection of x − q onto
// the unit direction u.
func TestProjectOntoRay(t *testing.T) {
	// Paper Example 3.2: ν = [-0.5, 0.25], q = 0.
	nu := Of(-0.5, 0.25)
	u, _ := nu.Unit()
	q := Of(0, 0)
	theta1 := SubDot(Of(0, -0.5), q, u)
	theta3 := SubDot(Of(-1, 1), q, u)
	if !almostEq(theta1, -0.2236, 1e-3) {
		t.Errorf("θ1 = %v, want ≈ -0.22", theta1)
	}
	if !almostEq(theta3, 1.3416, 1e-3) {
		t.Errorf("θ3 = %v, want ≈ 1.34", theta3)
	}
}

func TestParseAndString(t *testing.T) {
	v, err := Parse("1.5, -2, 3e2")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Of(1.5, -2, 300)) {
		t.Errorf("Parse = %v", v)
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse of empty string succeeded")
	}
	if _, err := Parse("a,b"); err == nil {
		t.Error("Parse of junk succeeded")
	}
	if s := Of(1, 2).String(); s != "[1 2]" {
		t.Errorf("String = %q", s)
	}
}

func TestIsFinite(t *testing.T) {
	if !Of(1, 2).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if Of(1, math.NaN()).IsFinite() || Of(math.Inf(1)).IsFinite() {
		t.Error("non-finite vector reported finite")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2)
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func randomVec(r *rand.Rand, d int) Vector {
	v := New(d)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}

// Property: the Cauchy–Schwarz inequality and triangle inequality hold.
func TestQuickCauchySchwarzTriangle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(8)
		a, b, c := randomVec(r, d), randomVec(r, d), randomVec(r, d)
		if math.Abs(a.Dot(b)) > a.Norm()*b.Norm()+1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean minimizes the sum of squared distances against random
// perturbations (first-order optimality of the centroid).
func TestQuickMeanMinimizesSquaredDistance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		k := 2 + r.Intn(5)
		pts := make([]Vector, k)
		for i := range pts {
			pts[i] = randomVec(r, d)
		}
		m := Mean(pts...)
		sum := func(c Vector) float64 {
			var s float64
			for _, p := range pts {
				s += p.Dist2(c)
			}
			return s
		}
		base := sum(m)
		for trial := 0; trial < 8; trial++ {
			if sum(m.Add(randomVec(r, d).Scale(0.05))) < base-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: projection onto a ray never exceeds the vector's distance from
// the origin of the ray.
func TestQuickProjectionBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		origin := randomVec(r, d)
		dir := randomVec(r, d)
		u, ok := dir.Unit()
		if !ok {
			return true
		}
		x := randomVec(r, d)
		return math.Abs(SubDot(x, origin, u)) <= x.Dist(origin)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	if got := (Euclidean{}).Distance(Of(0, 0), Of(3, 4)); got != 5 {
		t.Errorf("Euclidean.Distance = %v, want 5", got)
	}
}

func TestCosineDistance(t *testing.T) {
	cd := CosineDistance{}
	if got := cd.Distance(Of(1, 0), Of(2, 0)); !almostEq(got, 0, 1e-12) {
		t.Errorf("parallel cosine distance = %v", got)
	}
	if got := cd.Distance(Of(1, 0), Of(0, 5)); !almostEq(got, 1, 1e-12) {
		t.Errorf("orthogonal cosine distance = %v", got)
	}
	if got := cd.Distance(Of(1, 0), Of(-1, 0)); !almostEq(got, 2, 1e-12) {
		t.Errorf("antiparallel cosine distance = %v", got)
	}
	if got := cd.Distance(Of(0, 0), Of(1, 0)); got != 1 {
		t.Errorf("zero-vector cosine distance = %v, want 1", got)
	}
}

func TestMetricSymmetryQuick(t *testing.T) {
	metrics := []Metric{Euclidean{}, CosineDistance{}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		a, b := randomVec(r, d), randomVec(r, d)
		for _, m := range metrics {
			if math.Abs(m.Distance(a, b)-m.Distance(b, a)) > 1e-12 {
				return false
			}
			if m.Distance(a, a) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
