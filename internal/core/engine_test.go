package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/vec"
)

// randomInstance generates a random proximity rank join problem.
type instance struct {
	rels []*relation.Relation
	q    vec.Vector
	fn   *agg.EuclideanSum
	k    int
}

// instanceData draws n relations of dimensionality d, each of sizeOf()
// tuples, and a query point.
func instanceData(r *rand.Rand, n, d int, sizeOf func() int) ([]*relation.Relation, vec.Vector) {
	rels := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		tuples := make([]relation.Tuple, sizeOf())
		for j := range tuples {
			v := vec.New(d)
			for c := range v {
				v[c] = r.NormFloat64() * 3
			}
			tuples[j] = relation.Tuple{
				ID:    string(rune('a'+i)) + string(rune('0'+j%10)),
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
	return rels, q
}

func randomInstance(r *rand.Rand, maxN, maxSize int) instance {
	n := 2 + r.Intn(maxN-1)
	d := 1 + r.Intn(3)
	rels, q := instanceData(r, n, d, func() int { return 2 + r.Intn(maxSize-1) })
	transform := agg.LogScore
	if r.Intn(2) == 0 {
		transform = agg.IdentityScore
	}
	fn := agg.MustEuclideanSum(agg.Weights{
		Ws:  0.2 + r.Float64()*2,
		Wq:  0.2 + r.Float64()*2,
		Wmu: r.Float64() * 2,
	}, transform)
	return instance{rels: rels, q: q, fn: fn, k: 1 + r.Intn(5)}
}

func (in instance) sources(t testing.TB, kind relation.AccessKind) []relation.Source {
	t.Helper()
	out := make([]relation.Source, len(in.rels))
	for i, rel := range in.rels {
		s, err := relation.OpenSource(rel, kind, in.q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// scoreSource opens rel's score stream.
func scoreSource(t testing.TB, rel *relation.Relation) relation.Source {
	t.Helper()
	s, err := relation.OpenSource(rel, relation.ScoreAccess, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runAlgo(t testing.TB, in instance, kind relation.AccessKind, opts Options) Result {
	t.Helper()
	opts.K = in.k
	opts.Query = in.q
	opts.Agg = in.fn
	e, err := NewEngine(in.sources(t, kind), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func scoresOf(combos []Combination) []float64 {
	out := make([]float64, len(combos))
	for i, c := range combos {
		out[i] = c.Score
	}
	return out
}

func sameScores(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// TestQuickAllAlgorithmsMatchNaive is the central correctness property:
// every algorithm, on both access kinds, with eager or lazy bound
// maintenance, returns the same top-K score sequence as the exhaustive
// oracle.
func TestQuickAllAlgorithmsMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 6)
		want, err := Naive(in.rels, in.q, in.fn, in.k)
		if err != nil {
			return false
		}
		wantScores := scoresOf(want)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				for _, eager := range []bool{false, true} {
					res := runAlgo(t, in, kind, Options{Algorithm: algo, EagerBounds: eager})
					if res.DNF {
						return false
					}
					if !sameScores(scoresOf(res.Combinations), wantScores, 1e-7) {
						t.Logf("seed %d kind %v algo %v eager %v: got %v want %v",
							seed, kind, algo, eager, scoresOf(res.Combinations), wantScores)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickTightNeverDeeperThanCorner: with the same pulling strategy the
// tight bound never reads more from any relation (its threshold is ≤ the
// corner threshold at every state).
func TestQuickTightNeverDeeperThanCorner(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 8)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			cb := runAlgo(t, in, kind, Options{Algorithm: CBRR})
			tb := runAlgo(t, in, kind, Options{Algorithm: TBRR})
			for i := range cb.Stats.Depths {
				if tb.Stats.Depths[i] > cb.Stats.Depths[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickTheorem35 checks depth(TBPA, I, i) ≤ depth(TBRR, I, i) for all i.
func TestQuickTheorem35(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 8)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			rr := runAlgo(t, in, kind, Options{Algorithm: TBRR})
			pa := runAlgo(t, in, kind, Options{Algorithm: TBPA})
			for i := range rr.Stats.Depths {
				if pa.Stats.Depths[i] > rr.Stats.Depths[i] {
					t.Logf("seed %d kind %v: PA depths %v vs RR %v", seed, kind, pa.Stats.Depths, rr.Stats.Depths)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickLazyEqualsEager: lazy heap maintenance must be observationally
// identical to the paper's eager recomputation (same depths, same results,
// same pull sequence).
func TestQuickLazyEqualsEager(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 7)
		for _, algo := range []Algorithm{TBRR, TBPA} {
			lazy := runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: algo})
			eager := runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: algo, EagerBounds: true})
			if lazy.Stats.SumDepths != eager.Stats.SumDepths {
				return false
			}
			for i := range lazy.Stats.Depths {
				if lazy.Stats.Depths[i] != eager.Stats.Depths[i] {
					return false
				}
			}
			if !sameScores(scoresOf(lazy.Combinations), scoresOf(eager.Combinations), 0) {
				return false
			}
			// Lazy must not solve more QPs than eager.
			if lazy.Stats.QPSolves > eager.Stats.QPSolves {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoundIsCorrect replays a full run and verifies that at every
// step, every combination that still used an unseen tuple at that step
// scored no more than the threshold recorded at that step.
func TestQuickBoundIsCorrect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 3, 5)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range []Algorithm{CBRR, TBRR} {
				e, err := NewEngine(in.sources(t, kind), Options{
					K: 1 << 20, Algorithm: algo, Query: in.q, Agg: in.fn,
				})
				if err != nil {
					return false
				}
				// Pull round-robin to exhaustion, recording thresholds and
				// the step at which each tuple arrived.
				type pullRec struct {
					t float64
				}
				var recs []pullRec
				arrival := make([]map[string]int, e.n) // tuple ID -> step index
				for i := range arrival {
					arrival[i] = map[string]int{}
				}
				rr := &roundRobin{}
				for {
					ri := rr.choose(e)
					if ri < 0 {
						break
					}
					before := e.rels[ri].depth()
					if err := e.step(ri); err != nil {
						return false
					}
					if e.rels[ri].depth() > before {
						arrival[ri][e.rels[ri].tuples[before].ID] = len(recs)
					}
					recs = append(recs, pullRec{t: e.t})
				}
				// Every full combination: check against thresholds.
				all, err := Naive(in.rels, in.q, in.fn, 1<<20)
				if err != nil {
					return false
				}
				for _, c := range all {
					// The combination is "unseen" at step s if any member
					// arrived strictly after s.
					latest := 0
					for i, tup := range c.Tuples {
						step, ok := arrival[i][tup.ID]
						if !ok {
							return false // must have been pulled by exhaustion
						}
						if step > latest {
							latest = step
						}
					}
					// For steps s < latest the combination was still unseen.
					for s := 0; s < latest; s++ {
						if c.Score > recs[s].t+1e-7 {
							t.Logf("seed %d kind %v algo %v: score %.6f beats t=%.6f at step %d",
								seed, kind, algo, c.Score, recs[s].t, s)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestEngineValidation(t *testing.T) {
	in := instance{
		rels: []*relation.Relation{
			relation.MustNew("A", 1, []relation.Tuple{{ID: "a", Score: 0.5, Vec: vec.Of(0, 0)}}),
			relation.MustNew("B", 1, []relation.Tuple{{ID: "b", Score: 0.5, Vec: vec.Of(1, 1)}}),
		},
		q:  vec.Of(0, 0),
		fn: defaultAgg(),
		k:  1,
	}
	srcs := in.sources(t, relation.DistanceAccess)

	if _, err := NewEngine(srcs[:1], Options{K: 1, Query: in.q, Agg: in.fn}); !errors.Is(err, ErrNoRelations) {
		t.Errorf("single relation: %v", err)
	}
	if _, err := NewEngine(srcs, Options{K: 0, Query: in.q, Agg: in.fn}); !errors.Is(err, ErrBadK) {
		t.Errorf("K=0: %v", err)
	}
	if _, err := NewEngine(srcs, Options{K: 1, Query: in.q}); !errors.Is(err, ErrNilAggregator) {
		t.Errorf("nil agg: %v", err)
	}
	if _, err := NewEngine(srcs, Options{K: 1, Query: vec.Of(0), Agg: in.fn}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: %v", err)
	}
	mixed := []relation.Source{srcs[0], scoreSource(t, in.rels[1])}
	if _, err := NewEngine(mixed, Options{K: 1, Query: in.q, Agg: in.fn}); !errors.Is(err, ErrMixedAccess) {
		t.Errorf("mixed access: %v", err)
	}
}

func TestEngineKLargerThanCrossProduct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := randomInstance(r, 2, 3)
	in.k = 1000
	res := runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: TBRR})
	total := 1
	for _, rel := range in.rels {
		total *= rel.Len()
	}
	if len(res.Combinations) != total {
		t.Fatalf("got %d combinations, want the whole cross product %d", len(res.Combinations), total)
	}
	// Scores must be non-increasing.
	for i := 1; i < len(res.Combinations); i++ {
		if res.Combinations[i].Score > res.Combinations[i-1].Score+1e-12 {
			t.Fatal("result not sorted")
		}
	}
}

func TestEngineFaultPropagation(t *testing.T) {
	in := instance{
		rels: []*relation.Relation{
			relation.MustNew("A", 1, []relation.Tuple{
				{ID: "a1", Score: 0.5, Vec: vec.Of(0, 0)},
				{ID: "a2", Score: 0.5, Vec: vec.Of(1, 0)},
			}),
			relation.MustNew("B", 1, []relation.Tuple{
				{ID: "b1", Score: 0.5, Vec: vec.Of(0, 1)},
				{ID: "b2", Score: 0.5, Vec: vec.Of(1, 1)},
			}),
		},
		q: vec.Of(0, 0), fn: defaultAgg(), k: 4,
	}
	boom := errors.New("service unavailable")
	srcs := in.sources(t, relation.DistanceAccess)
	srcs[1] = &relation.FaultySource{Inner: srcs[1], FailAfter: 1, Err: boom}
	e, err := NewEngine(srcs, Options{K: 4, Algorithm: TBRR, Query: in.q, Agg: in.fn})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrapped boom", err)
	}
}

func TestEngineDNFCaps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := randomInstance(r, 2, 8)
	in.k = 5
	res := runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: CBRR, MaxSumDepths: 3})
	if !res.DNF {
		t.Fatal("MaxSumDepths did not trigger DNF")
	}
	if res.Stats.SumDepths > 3 {
		t.Fatalf("SumDepths = %d beyond cap", res.Stats.SumDepths)
	}
	res = runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: CBRR, MaxCombinations: 2})
	if !res.DNF {
		t.Fatal("MaxCombinations did not trigger DNF")
	}
}

func TestEngineDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	in := randomInstance(r, 3, 7)
	for _, algo := range Algorithms {
		a := runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: algo})
		b := runAlgo(t, in, relation.DistanceAccess, Options{Algorithm: algo})
		if !sameScores(scoresOf(a.Combinations), scoresOf(b.Combinations), 0) {
			t.Fatalf("%v: nondeterministic scores", algo)
		}
		for i := range a.Stats.Depths {
			if a.Stats.Depths[i] != b.Stats.Depths[i] {
				t.Fatalf("%v: nondeterministic depths", algo)
			}
		}
		for i := range a.Combinations {
			for j := range a.Combinations[i].Ranks {
				if a.Combinations[i].Ranks[j] != b.Combinations[i].Ranks[j] {
					t.Fatalf("%v: nondeterministic tie-breaking", algo)
				}
			}
		}
	}
}

func TestEngineDepthAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := randomInstance(r, 2, 6)
	srcs := in.sources(t, relation.DistanceAccess)
	counters := make([]*relation.CountingSource, len(srcs))
	for i, s := range srcs {
		counters[i] = &relation.CountingSource{Inner: s}
		srcs[i] = counters[i]
	}
	e, err := NewEngine(srcs, Options{K: in.k, Algorithm: TBPA, Query: in.q, Agg: in.fn})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, c := range counters {
		if res.Stats.Depths[i] != c.Reads {
			t.Fatalf("relation %d: engine depth %d, source reads %d", i, res.Stats.Depths[i], c.Reads)
		}
		sum += c.Reads
	}
	if res.Stats.SumDepths != sum {
		t.Fatalf("SumDepths %d != Σ %d", res.Stats.SumDepths, sum)
	}
}

func TestTopKBuffer(t *testing.T) {
	b := newTopK(2)
	if b.kthScore() != negInf {
		t.Fatal("empty buffer kthScore")
	}
	b.push(Combination{Score: 1, Ranks: []int{0, 0}})
	b.push(Combination{Score: 3, Ranks: []int{1, 0}})
	b.push(Combination{Score: 2, Ranks: []int{0, 1}})
	if b.len() != 2 {
		t.Fatalf("len = %d", b.len())
	}
	got := b.sorted()
	if got[0].Score != 3 || got[1].Score != 2 {
		t.Fatalf("sorted = %v", scoresOf(got))
	}
	// Tie-breaking: equal scores ordered by rank vector.
	b2 := newTopK(1)
	b2.push(Combination{Score: 5, Ranks: []int{1, 0}})
	b2.push(Combination{Score: 5, Ranks: []int{0, 1}})
	if r := b2.sorted()[0].Ranks; r[0] != 0 || r[1] != 1 {
		t.Fatalf("tie-break kept %v", r)
	}
	// Reinserting the same combination keeps buffer stable.
	b2.push(Combination{Score: 5, Ranks: []int{0, 1}})
	if b2.len() != 1 {
		t.Fatal("duplicate push grew buffer")
	}
}

// TestQuickTopKMatchesSort: the buffer always retains the K best of any
// random stream under the deterministic order.
func TestQuickTopKMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(5)
		b := newTopK(k)
		var all []Combination
		for i := 0; i < 40; i++ {
			c := Combination{Score: math.Round(r.Float64()*10) / 2, Ranks: []int{r.Intn(5), r.Intn(5)}}
			all = append(all, c)
			b.push(c)
		}
		sort.Slice(all, func(i, j int) bool { return combWorse(all[j], all[i]) })
		want := all[:min(k, len(all))]
		got := b.sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEnumNames(t *testing.T) {
	if CBRR.String() == "" || TBPA.ShortName() != "TBPA" || Algorithm(9).String() == "" {
		t.Error("algorithm names")
	}
	if CBRR.Bound() != CornerBound || TBRR.Bound() != TightBound {
		t.Error("Bound mapping")
	}
	if CBPA.Pull() != PotentialAdaptive || TBRR.Pull() != RoundRobin {
		t.Error("Pull mapping")
	}
	if CornerBound.String() != "corner" || TightBound.String() != "tight" || BoundKind(7).String() == "" {
		t.Error("bound names")
	}
	if RoundRobin.String() != "round-robin" || PotentialAdaptive.String() != "potential-adaptive" || PullKind(7).String() == "" {
		t.Error("pull names")
	}
}

func TestNaiveValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	in := randomInstance(r, 2, 3)
	if _, err := Naive(in.rels[:1], in.q, in.fn, 1); !errors.Is(err, ErrNoRelations) {
		t.Error("single relation accepted")
	}
	if _, err := Naive(in.rels, in.q, in.fn, 0); !errors.Is(err, ErrBadK) {
		t.Error("K=0 accepted")
	}
	if _, err := Naive(in.rels, in.q, nil, 1); !errors.Is(err, ErrNilAggregator) {
		t.Error("nil aggregation accepted")
	}
	if _, err := Naive(in.rels, vec.New(in.q.Dim()+1), in.fn, 1); !errors.Is(err, ErrDimMismatch) {
		t.Error("dim mismatch accepted")
	}
}
