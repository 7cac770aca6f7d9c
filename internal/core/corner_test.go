package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/vec"
)

// TestCornerScoreAccessFormulas checks eq. (36)-(38) explicitly: under
// score-based access the corner bound combines the first scores of the
// other relations with the last score of the unseen one, all at zero
// distances.
func TestCornerScoreAccessFormulas(t *testing.T) {
	r1 := relation.MustNew("R1", 1, []relation.Tuple{
		{ID: "a", Score: 0.9, Vec: vec.Of(3, 0)},
		{ID: "b", Score: 0.5, Vec: vec.Of(0, 4)},
	})
	r2 := relation.MustNew("R2", 1, []relation.Tuple{
		{ID: "c", Score: 0.8, Vec: vec.Of(1, 1)},
		{ID: "d", Score: 0.2, Vec: vec.Of(2, 2)},
	})
	e, err := NewEngine([]relation.Source{
		scoreSource(t, r1), scoreSource(t, r2),
	}, Options{K: 1, Algorithm: CBRR, Query: vec.Of(0, 0), Agg: defaultAgg()})
	if err != nil {
		t.Fatal(err)
	}
	c := e.bound.(*cornerBounder)

	// Before any pull: every cap is σ_max = 1 → g(1,0,0) = 0 → t = 0.
	if got := c.threshold(); math.Abs(got) > 1e-12 {
		t.Fatalf("initial threshold = %v, want 0", got)
	}

	// Pull both tuples of R1 and one of R2.
	for _, ri := range []int{0, 0, 1} {
		if err := e.step(ri); err != nil {
			t.Fatal(err)
		}
	}
	// t_1 = g(σ_last(R1)) + g(σ_first(R2)) = ln 0.5 + ln 0.8
	want1 := math.Log(0.5) + math.Log(0.8)
	if got := c.potential(0); math.Abs(got-want1) > 1e-12 {
		t.Errorf("t_1 = %v, want %v", got, want1)
	}
	// t_2 = g(σ_first(R1)) + g(σ_last(R2)) = ln 0.9 + ln 0.8
	want2 := math.Log(0.9) + math.Log(0.8)
	if got := c.potential(1); math.Abs(got-want2) > 1e-12 {
		t.Errorf("t_2 = %v, want %v", got, want2)
	}
	if got := c.threshold(); math.Abs(got-math.Max(want1, want2)) > 1e-12 {
		t.Errorf("threshold = %v, want %v", got, math.Max(want1, want2))
	}
}

// TestCornerDistanceAccessFormulas checks eq. (3)-(5): distances of the
// first and last accessed tuples with σ_max scores and zero centroid
// distance.
func TestCornerDistanceAccessFormulas(t *testing.T) {
	r1 := relation.MustNew("R1", 1, []relation.Tuple{
		{ID: "a", Score: 0.9, Vec: vec.Of(3, 0)}, // dist 3
		{ID: "b", Score: 0.5, Vec: vec.Of(0, 4)}, // dist 4
	})
	r2 := relation.MustNew("R2", 1, []relation.Tuple{
		{ID: "c", Score: 0.8, Vec: vec.Of(1, 0)}, // dist 1
		{ID: "d", Score: 0.2, Vec: vec.Of(2, 0)}, // dist 2
	})
	q := vec.Of(0, 0)
	srcs := distanceSources(t, []*relation.Relation{r1, r2}, q)
	e, err := NewEngine(srcs, Options{K: 1, Algorithm: CBRR, Query: q, Agg: defaultAgg()})
	if err != nil {
		t.Fatal(err)
	}
	c := e.bound.(*cornerBounder)
	for _, ri := range []int{0, 0, 1} {
		if err := e.step(ri); err != nil {
			t.Fatal(err)
		}
	}
	// t_1 = g(1, last(R1)=16, 0) + g(1, first(R2)=1, 0) = −16 − 1.
	if got := c.potential(0); math.Abs(got-(-17)) > 1e-12 {
		t.Errorf("t_1 = %v, want -17", got)
	}
	// t_2 = g(1, first(R1)=9, 0) + g(1, last(R2)=1, 0) = −9 − 1.
	if got := c.potential(1); math.Abs(got-(-10)) > 1e-12 {
		t.Errorf("t_2 = %v, want -10", got)
	}
	if got := c.threshold(); math.Abs(got-(-10)) > 1e-12 {
		t.Errorf("threshold = %v, want -10", got)
	}
	// Exhaust R2: its potential dies, threshold falls back to t_1.
	e.rels[1].exhausted = true
	if got := c.potential(1); !math.IsInf(got, -1) {
		t.Errorf("exhausted potential = %v, want -inf", got)
	}
	if got := c.threshold(); math.Abs(got-(-17)) > 1e-12 {
		t.Errorf("threshold after exhaustion = %v, want -17", got)
	}
}

// TestQuickCornerCapsFresh: the caps register caches are the ones the
// formulas give at every state. Pull by pull, under both access kinds and
// both pulling strategies, every potential and the threshold must be
// bit-equal to the sum, in relation order, of seenCap and unseenCap
// evaluated afresh.
func TestQuickCornerCapsFresh(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(r, 4, 10)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range []Algorithm{CBRR, CBPA} {
				e, err := NewEngine(in.sources(t, kind), Options{K: in.k, Algorithm: algo, Query: in.q, Agg: in.fn})
				if err != nil {
					t.Fatal(err)
				}
				c := e.bound.(*cornerBounder)
				parts := make([]float64, e.n)
				fresh := func(i int) float64 {
					if e.rels[i].exhausted {
						return math.Inf(-1)
					}
					for j, rs := range e.rels {
						parts[j] = c.seenCap(rs)
					}
					parts[i] = c.unseenCap(e.rels[i])
					var sum float64
					for _, p := range parts {
						sum += p
					}
					return sum
				}
				for pull := 0; ; pull++ {
					want := math.Inf(-1)
					for i := range e.rels {
						p, f := c.potential(i), fresh(i)
						if math.Float64bits(p) != math.Float64bits(f) {
							t.Fatalf("trial %d %v %v pull %d: potential(R%d) %v, fresh %v", trial, kind, algo, pull, i, p, f)
						}
						if !e.rels[i].exhausted && f > want {
							want = f
						}
					}
					if got := c.threshold(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d %v %v pull %d: threshold %v, fresh %v", trial, kind, algo, pull, got, want)
					}
					ri := e.pull.choose(e)
					if ri < 0 || e.satisfied() {
						break
					}
					if err := e.step(ri); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestExplainBreakdown exercises the diagnostic API on the Table 1 state.
func TestExplainBreakdown(t *testing.T) {
	e := engineAfterFullTable1(t, TBRR)
	subsets, ok := e.TightBoundBreakdown()
	if !ok {
		t.Fatal("breakdown unavailable for tight engine")
	}
	if len(subsets) != 7 {
		t.Fatalf("subsets = %d, want 7 (proper subsets of 3 relations)", len(subsets))
	}
	total := 0
	best := math.Inf(-1)
	for _, sb := range subsets {
		total += len(sb.Partials)
		if sb.TM > best {
			best = sb.TM
		}
		if !sb.Valid {
			t.Errorf("subset %v invalid with nothing exhausted", sb.Members)
		}
	}
	if total != 19 {
		t.Fatalf("partials = %d, want 19", total)
	}
	if math.Abs(best-(-7)) > 0.05 {
		t.Fatalf("max t_M = %v, want -7", best)
	}
	// Corner engines have no breakdown.
	ce := engineAfterFullTable1(t, CBRR)
	if _, ok := ce.TightBoundBreakdown(); ok {
		t.Fatal("breakdown reported for corner engine")
	}
}
