package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// ---------------------------------------------------------------------------
// Golden tests against every worked example in the paper.
// ---------------------------------------------------------------------------

// table1Relations builds the three relations of paper Table 1.
func table1Relations(t testing.TB) []*relation.Relation {
	t.Helper()
	r1 := relation.MustNew("R1", 1.0, []relation.Tuple{
		{ID: "t1_1", Score: 0.5, Vec: vec.Of(0, -0.5)},
		{ID: "t1_2", Score: 1.0, Vec: vec.Of(0, 1)},
	})
	r2 := relation.MustNew("R2", 1.0, []relation.Tuple{
		{ID: "t2_1", Score: 1.0, Vec: vec.Of(1, 1)},
		{ID: "t2_2", Score: 0.8, Vec: vec.Of(-2, 2)},
	})
	r3 := relation.MustNew("R3", 1.0, []relation.Tuple{
		{ID: "t3_1", Score: 1.0, Vec: vec.Of(-1, 1)},
		{ID: "t3_2", Score: 0.4, Vec: vec.Of(-2, -2)},
	})
	return []*relation.Relation{r1, r2, r3}
}

func distanceSources(t testing.TB, rels []*relation.Relation, q vec.Vector) []relation.Source {
	t.Helper()
	out := make([]relation.Source, len(rels))
	for i, r := range rels {
		s, err := relation.OpenSource(r, relation.DistanceAccess, q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func defaultAgg() *agg.EuclideanSum {
	return agg.MustEuclideanSum(agg.DefaultWeights(), agg.LogScore)
}

// TestPaperTable1 checks that the Naive oracle reproduces the eight sorted
// combination scores of Table 1.
func TestPaperTable1(t *testing.T) {
	rels := table1Relations(t)
	combos, err := Naive(rels, vec.Of(0, 0), defaultAgg(), 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-7.0, -8.4, -13.9, -16.3, -21.0, -22.6, -28.9, -29.5}
	if len(combos) != len(want) {
		t.Fatalf("got %d combinations, want %d", len(combos), len(want))
	}
	for i, w := range want {
		if math.Abs(combos[i].Score-w) > 0.05 {
			t.Errorf("combo %d score %.2f, want %.1f", i, combos[i].Score, w)
		}
	}
}

// engineAfterFullTable1 pulls both tuples of each relation (p_i = 2).
func engineAfterFullTable1(t *testing.T, a Algorithm) *Engine {
	t.Helper()
	rels := table1Relations(t)
	q := vec.Of(0, 0)
	e, err := NewEngine(distanceSources(t, rels, q), Options{
		K: 1, Algorithm: a, Query: q, Agg: defaultAgg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range []int{0, 0, 1, 1, 2, 2} {
		if err := e.step(ri); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestPaperTable3 checks every per-subset bound t_M of Table 3 and the
// final tight threshold t = −7, achieved by completing τ2^(1) × τ3^(1).
func TestPaperTable3(t *testing.T) {
	e := engineAfterFullTable1(t, TBRR)
	b := e.bound.(*tightDistBounder)

	// Relation bits: R1 = 1, R2 = 2, R3 = 4.
	wantTM := map[int]float64{
		0: -19.2, // ∅
		1: -19.2, // {1}
		2: -12.8, // {2}
		4: -12.8, // {3}
		3: -13.5, // {1,2}
		5: -13.5, // {1,3}
		6: -7.0,  // {2,3}
	}
	for mask, want := range wantTM {
		got := b.tM(mask)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("t_M for mask %03b = %.2f, want %.1f", mask, got, want)
		}
	}
	if got := b.threshold(); math.Abs(got-(-7)) > 0.05 {
		t.Errorf("tight threshold = %.2f, want -7", got)
	}
	if math.Abs(e.Threshold()-(-7)) > 0.05 {
		t.Errorf("engine threshold = %.2f, want -7", e.Threshold())
	}
}

// TestPaperTable3PerPartial checks the individual t(τ) values of Table 3.
func TestPaperTable3PerPartial(t *testing.T) {
	e := engineAfterFullTable1(t, TBRR)
	b := e.bound.(*tightDistBounder)

	// Within a subset, partials are created in pull order; for the Table 1
	// pull sequence the partial list orders are deterministic. Identify
	// each partial by the IDs of the tuples its ranks name instead of list
	// position.
	wantByKey := map[string]float64{
		"":          -19.2,
		"t1_1":      -20.6,
		"t1_2":      -19.2,
		"t2_1":      -12.8,
		"t2_2":      -19.4,
		"t3_1":      -12.8,
		"t3_2":      -20.1,
		"t1_1|t2_1": -16.0,
		"t1_1|t2_2": -24.0,
		"t1_2|t2_1": -13.5,
		"t1_2|t2_2": -20.4,
		"t1_1|t3_1": -16.0,
		"t1_1|t3_2": -22.0,
		"t1_2|t3_1": -13.5,
		"t1_2|t3_2": -26.4,
		"t2_1|t3_1": -7.0,
		"t2_1|t3_2": -21.0,
		"t2_2|t3_1": -13.1,
		"t2_2|t3_2": -26.8,
	}
	checked := 0
	for mask, ss := range b.subsets {
		for id := range ss.partials {
			key := strings.Join(b.tupleIDs(mask, id), "|")
			want, ok := wantByKey[key]
			if !ok {
				t.Errorf("unexpected partial %q", key)
				continue
			}
			if got := b.computeBound(mask, id); math.Abs(got-want) > 0.05 {
				t.Errorf("t(%s) = %.2f, want %.1f", key, got, want)
			}
			checked++
		}
	}
	if checked != len(wantByKey) {
		t.Errorf("checked %d partials, want %d", checked, len(wantByKey))
	}
}

// findPartial returns the id of the partial of subset mask whose tuple IDs
// joined by "|" are key.
func findPartial(t *testing.T, b *tightDistBounder, mask int, key string) int {
	t.Helper()
	for id := range b.subsets[mask].partials {
		if strings.Join(b.tupleIDs(mask, id), "|") == key {
			return id
		}
	}
	t.Fatalf("partial %s not found in subset %03b", key, mask)
	return -1
}

// TestPaperExample31Corner checks the corner bound values of Example 3.1:
// t_c = max{−5, −10.25, −10.25} = −5, which cannot certify the true top-1
// (score −7) even though the tight bound can.
func TestPaperExample31Corner(t *testing.T) {
	e := engineAfterFullTable1(t, CBRR)
	c := e.bound.(*cornerBounder)
	wantTi := []float64{-5, -10.25, -10.25}
	for i, want := range wantTi {
		if got := c.potential(i); math.Abs(got-want) > 1e-9 {
			t.Errorf("t_%d = %v, want %v", i+1, got, want)
		}
	}
	if got := c.threshold(); math.Abs(got-(-5)) > 1e-9 {
		t.Errorf("corner threshold = %v, want -5", got)
	}
	// The seen top-1 scores −7 < t_c: the corner-bound algorithm cannot stop.
	if e.satisfied() {
		t.Error("corner bound incorrectly certified the top-1 at depth (2,2,2)")
	}
	// The tight bound can (Example 3.1).
	te := engineAfterFullTable1(t, TBRR)
	if !te.satisfied() {
		t.Error("tight bound failed to certify the top-1 at depth (2,2,2)")
	}
}

// TestPaperExample32Reconstruction checks the optimal unseen locations of
// Example 3.2 through the QP + ray reconstruction path.
func TestPaperExample32Reconstruction(t *testing.T) {
	e := engineAfterFullTable1(t, TBRR)
	b := e.bound.(*tightDistBounder)

	// Partial τ2^(1) (mask {2} = bit 1): y1* = [√2/2, √2/2], y3* = [2, 2].
	id := findPartial(t, b, 2, "t2_1")
	lower := []float64{math.Sqrt(e.rels[0].last), math.Sqrt(e.rels[2].last)}
	if math.Abs(lower[0]-1) > 1e-12 || math.Abs(lower[1]-2*math.Sqrt2) > 1e-12 {
		t.Fatalf("δ = %v, want (1, 2√2)", lower)
	}
	if got := b.computeBound(2, id); math.Abs(got-(-12.8)) > 0.05 {
		t.Fatalf("t(τ2^(1)) = %.2f, want -12.8", got)
	}

	// Partial τ1^(1) × τ3^(1) (mask {1,3} = 5): y2* ≈ [−2.53, 1.26], t = −16.
	id = findPartial(t, b, 5, "t1_1|t3_1")
	if got := b.computeBound(5, id); math.Abs(got-(-16)) > 0.05 {
		t.Fatalf("t(τ1^(1)×τ3^(1)) = %.2f, want -16", got)
	}
	// Reconstruct y2* explicitly.
	_, nu := b.seen(5, id)
	dir, _ := nu.Sub(e.q).Unit()
	if !nu.ApproxEqual(vec.Of(-0.5, 0.25), 1e-12) {
		t.Fatalf("ν = %v, want [-0.5 0.25]", nu)
	}
	y2 := e.q.AddScaled(2*math.Sqrt2, dir)
	if !y2.ApproxEqual(vec.Of(-2.5298, 1.2649), 1e-3) {
		t.Fatalf("y2* = %v, want ≈ [-2.53 1.26]", y2)
	}
}

// TestPaperTheorem31 reproduces the adversarial instance of the Theorem 3.1
// proof: with the corner bound the depth on R1 grows with the number of
// filler tuples, while the tight bound stops after a bounded prefix.
func TestPaperTheorem31(t *testing.T) {
	const fillers = 30
	// w_s = 0: scores are immaterial; LogScore with σ = 1 gives 0 anyway.
	fn := agg.MustEuclideanSum(agg.Weights{Ws: 0, Wq: 1, Wmu: 1}, agg.LogScore)
	q := vec.Of(0, 0)

	r1Tuples := []relation.Tuple{
		{ID: "t1_1", Score: 1, Vec: vec.Of(0, -0.5)},
		{ID: "t1_2", Score: 1, Vec: vec.Of(0, 1)},
	}
	// Fillers strictly between distance 1 and √1.5 keep the corner bound
	// above the true top-1 score −5.5.
	for i := 0; i < fillers; i++ {
		d := 1.0 + 0.2*float64(i+1)/float64(fillers+1) // in (1, 1.2), √1.5 ≈ 1.2247
		r1Tuples = append(r1Tuples, relation.Tuple{
			ID: "filler", Score: 1, Vec: vec.Of(0, d),
		})
	}
	r1Tuples = append(r1Tuples, relation.Tuple{ID: "far", Score: 1, Vec: vec.Of(0, 2.5)})
	r1 := relation.MustNew("R1", 1, r1Tuples)
	r2 := relation.MustNew("R2", 1, []relation.Tuple{
		{ID: "t2_1", Score: 1, Vec: vec.Of(0, 2)},
		{ID: "t2_2", Score: 1, Vec: vec.Of(-2, 2)},
	})
	rels := []*relation.Relation{r1, r2}

	run := func(a Algorithm) Result {
		e, err := NewEngine(distanceSources(t, rels, q), Options{
			K: 1, Algorithm: a, Query: q, Agg: fn,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tb := run(TBRR)
	cb := run(CBRR)

	if math.Abs(tb.Combinations[0].Score-(-5.5)) > 1e-9 {
		t.Fatalf("tight top-1 score = %v, want -5.5", tb.Combinations[0].Score)
	}
	if math.Abs(cb.Combinations[0].Score-(-5.5)) > 1e-9 {
		t.Fatalf("corner top-1 score = %v, want -5.5", cb.Combinations[0].Score)
	}
	if tb.Stats.Depths[0] > 4 {
		t.Errorf("tight depth on R1 = %d, want a small constant", tb.Stats.Depths[0])
	}
	if cb.Stats.Depths[0] <= fillers {
		t.Errorf("corner depth on R1 = %d, want > %d (must pass the fillers)", cb.Stats.Depths[0], fillers)
	}
}

// TestPaperTheoremC1 reproduces the score-based adversarial instance of
// Theorem C.1: the corner bound forces reading past an arbitrary number of
// high-score fillers, the tight bound does not.
func TestPaperTheoremC1(t *testing.T) {
	const fillers = 30
	fn := defaultAgg()
	q := vec.Of(0.0)

	r1 := relation.MustNew("R1", 1, []relation.Tuple{
		{ID: "t1_1", Score: 1, Vec: vec.Of(1)},
		{ID: "t1_2", Score: math.Exp(-5), Vec: vec.Of(0)},
	})
	r2Tuples := []relation.Tuple{
		{ID: "t2_1", Score: 1, Vec: vec.Of(1)},
		{ID: "t2_2", Score: 1, Vec: vec.Of(1.0 / 3.0)},
	}
	// Fillers with scores above e^{-4/3} but placed far away.
	for i := 0; i < fillers; i++ {
		s := 0.99 - 0.7*float64(i)/float64(fillers) // stays above e^{-4/3} ≈ 0.2636
		r2Tuples = append(r2Tuples, relation.Tuple{ID: "filler", Score: s, Vec: vec.Of(50)})
	}
	r2Tuples = append(r2Tuples, relation.Tuple{ID: "low", Score: 0.1, Vec: vec.Of(60)})
	r2 := relation.MustNew("R2", 1, r2Tuples)

	run := func(a Algorithm) Result {
		e, err := NewEngine([]relation.Source{
			scoreSource(t, r1), scoreSource(t, r2),
		}, Options{K: 1, Algorithm: a, Query: q, Agg: fn})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tb := run(TBRR)
	cb := run(CBRR)
	if math.Abs(tb.Combinations[0].Score-(-4.0/3.0)) > 1e-9 {
		t.Fatalf("tight top-1 = %v, want -4/3", tb.Combinations[0].Score)
	}
	if math.Abs(cb.Combinations[0].Score-(-4.0/3.0)) > 1e-9 {
		t.Fatalf("corner top-1 = %v, want -4/3", cb.Combinations[0].Score)
	}
	if tb.Stats.Depths[1] > 4 {
		t.Errorf("tight depth on R2 = %d, want a small constant", tb.Stats.Depths[1])
	}
	if cb.Stats.Depths[1] <= fillers {
		t.Errorf("corner depth on R2 = %d, want > %d", cb.Stats.Depths[1], fillers)
	}
}
