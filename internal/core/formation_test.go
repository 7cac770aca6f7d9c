package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// fixedInstance is randomInstance with the arity, relation size and
// dimensionality chosen by the caller.
func fixedInstance(r *rand.Rand, n, size, d, k int) instance {
	rels := make([]*relation.Relation, n)
	for i := range rels {
		tuples := make([]relation.Tuple, size)
		for j := range tuples {
			v := vec.New(d)
			for c := range v {
				v[c] = r.NormFloat64() * 3
			}
			tuples[j] = relation.Tuple{
				ID:    fmt.Sprintf("%c%d", 'a'+i, j),
				Score: 0.05 + 0.95*r.Float64(),
				Vec:   v,
			}
		}
		rels[i] = relation.MustNew(string(rune('A'+i)), 1.0, tuples)
	}
	q := vec.New(d)
	for c := range q {
		q[c] = r.NormFloat64()
	}
	fn := agg.MustEuclideanSum(agg.Weights{Ws: 1, Wq: 0.1, Wmu: 0.05}, agg.LogScore)
	return instance{rels: rels, q: q, fn: fn, k: k}
}

// formationCounters is one row of the pinned table.
type formationCounters struct {
	formed, pruned int64
	sumDepths      int
}

// pinnedFormation holds Engine.Run's formation counters as recorded at
// commit b5b76a6 (the linear prune scan), in the iteration order of
// TestFormationCountersPinned.
var pinnedFormation = []formationCounters{
	{1122, 1091, 67},    // n=2 distance CBRR(HRJN) bs=1
	{1122, 1091, 67},    // n=2 distance CBRR(HRJN) bs=7
	{1122, 1091, 67},    // n=2 distance CBRR(HRJN) bs=64
	{1054, 1023, 65},    // n=2 distance CBPA(HRJN*) bs=1
	{1054, 1023, 65},    // n=2 distance CBPA(HRJN*) bs=7
	{1054, 1023, 65},    // n=2 distance CBPA(HRJN*) bs=64
	{600, 569, 49},      // n=2 distance TBRR bs=1
	{600, 569, 49},      // n=2 distance TBRR bs=7
	{600, 569, 49},      // n=2 distance TBRR bs=64
	{450, 419, 43},      // n=2 distance TBPA bs=1
	{450, 419, 43},      // n=2 distance TBPA bs=7
	{450, 419, 43},      // n=2 distance TBPA bs=64
	{29756, 29647, 345}, // n=2 score CBRR(HRJN) bs=1
	{29756, 29647, 345}, // n=2 score CBRR(HRJN) bs=7
	{29756, 29647, 345}, // n=2 score CBRR(HRJN) bs=64
	{28545, 28436, 338}, // n=2 score CBPA(HRJN*) bs=1
	{28545, 28436, 338}, // n=2 score CBPA(HRJN*) bs=7
	{28545, 28436, 338}, // n=2 score CBPA(HRJN*) bs=64
	{20022, 19913, 283}, // n=2 score TBRR bs=1
	{20022, 19913, 283}, // n=2 score TBRR bs=7
	{20022, 19913, 283}, // n=2 score TBRR bs=64
	{18034, 17925, 269}, // n=2 score TBPA bs=1
	{18034, 17925, 269}, // n=2 score TBPA bs=7
	{18034, 17925, 269}, // n=2 score TBPA bs=64
	{2940, 2889, 43},    // n=3 distance CBRR(HRJN) bs=1
	{2940, 2889, 43},    // n=3 distance CBRR(HRJN) bs=7
	{2940, 2889, 43},    // n=3 distance CBRR(HRJN) bs=64
	{2940, 2895, 43},    // n=3 distance CBPA(HRJN*) bs=1
	{2940, 2895, 43},    // n=3 distance CBPA(HRJN*) bs=7
	{2940, 2895, 43},    // n=3 distance CBPA(HRJN*) bs=64
	{1331, 1280, 33},    // n=3 distance TBRR bs=1
	{1331, 1280, 33},    // n=3 distance TBRR bs=7
	{1331, 1280, 33},    // n=3 distance TBRR bs=64
	{792, 747, 28},      // n=3 distance TBPA bs=1
	{792, 747, 28},      // n=3 distance TBPA bs=7
	{792, 747, 28},      // n=3 distance TBPA bs=64
	{57798, 57707, 116}, // n=3 score CBRR(HRJN) bs=1
	{57798, 57707, 116}, // n=3 score CBRR(HRJN) bs=7
	{57798, 57707, 116}, // n=3 score CBRR(HRJN) bs=64
	{50505, 50418, 111}, // n=3 score CBPA(HRJN*) bs=1
	{50505, 50418, 111}, // n=3 score CBPA(HRJN*) bs=7
	{50505, 50418, 111}, // n=3 score CBPA(HRJN*) bs=64
	{31744, 31653, 95},  // n=3 score TBRR bs=1
	{31744, 31653, 95},  // n=3 score TBRR bs=7
	{31744, 31653, 95},  // n=3 score TBRR bs=64
	{21504, 21411, 84},  // n=3 score TBPA bs=1
	{21504, 21411, 84},  // n=3 score TBPA bs=7
	{21504, 21411, 84},  // n=3 score TBPA bs=64
	{24336, 24171, 50},  // n=4 distance CBRR(HRJN) bs=1
	{24336, 24171, 50},  // n=4 distance CBRR(HRJN) bs=7
	{24336, 24171, 50},  // n=4 distance CBRR(HRJN) bs=64
	{20449, 20290, 48},  // n=4 distance CBPA(HRJN*) bs=1
	{20449, 20290, 48},  // n=4 distance CBPA(HRJN*) bs=7
	{20449, 20290, 48},  // n=4 distance CBPA(HRJN*) bs=64
	{3136, 2971, 30},    // n=4 distance TBRR bs=1
	{3136, 2971, 30},    // n=4 distance TBRR bs=7
	{3136, 2971, 30},    // n=4 distance TBRR bs=64
	{1960, 1814, 27},    // n=4 distance TBPA bs=1
	{1960, 1814, 27},    // n=4 distance TBPA bs=7
	{1960, 1814, 27},    // n=4 distance TBPA bs=64
	{38416, 38166, 56},  // n=4 score CBRR(HRJN) bs=1
	{38416, 38166, 56},  // n=4 score CBRR(HRJN) bs=7
	{38416, 38166, 56},  // n=4 score CBRR(HRJN) bs=64
	{38416, 38176, 56},  // n=4 score CBPA(HRJN*) bs=1
	{38416, 38176, 56},  // n=4 score CBPA(HRJN*) bs=7
	{38416, 38176, 56},  // n=4 score CBPA(HRJN*) bs=64
	{38416, 38166, 56},  // n=4 score TBRR bs=1
	{38416, 38166, 56},  // n=4 score TBRR bs=7
	{38416, 38166, 56},  // n=4 score TBRR bs=64
	{35672, 35422, 55},  // n=4 score TBPA bs=1
	{35672, 35422, 55},  // n=4 score TBPA bs=7
	{35672, 35422, 55},  // n=4 score TBPA bs=64
}

// TestFormationCountersPinned holds the batch path's cost counters to the
// values the linear prune scan produced, row for row: n ∈ {2, 3, 4}, both
// access kinds, all four algorithms, block widths 1/7/64. Any rewrite of
// enumerate must prune the identical set and charge the identical counts.
func TestFormationCountersPinned(t *testing.T) {
	var got []formationCounters
	var rows []string
	for _, shape := range []struct{ n, size int }{{2, 400}, {3, 40}, {4, 14}} {
		in := fixedInstance(rand.New(rand.NewSource(int64(1600+shape.n))), shape.n, shape.size, 3, 8)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				for _, bs := range []int{1, 7, 64} {
					res := runAlgo(t, in, kind, Options{Algorithm: algo, BlockSize: bs})
					st := res.Stats
					got = append(got, formationCounters{st.CombinationsFormed, st.CombinationsPruned, st.SumDepths})
					rows = append(rows, fmt.Sprintf("\t{%d, %d, %d}, // n=%d %v %v bs=%d",
						st.CombinationsFormed, st.CombinationsPruned, st.SumDepths, shape.n, kind, algo, bs))
				}
			}
		}
	}
	if len(got) != len(pinnedFormation) {
		t.Fatalf("pinned table has %d rows, run produced %d:\n%s", len(pinnedFormation), len(got), strings.Join(rows, "\n"))
	}
	for i := range got {
		if got[i] != pinnedFormation[i] {
			t.Errorf("row %d: got %+v, pinned %+v (%s)", i, got[i], pinnedFormation[i], strings.TrimSpace(rows[i]))
		}
	}
}
