package proxrank_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	proxrank "repro"
)

func smallRelations(t testing.TB) []*proxrank.Relation {
	t.Helper()
	mk := func(name string, tuples []proxrank.Tuple) *proxrank.Relation {
		r, err := proxrank.NewRelation(name, 1.0, tuples)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := mk("hotels", []proxrank.Tuple{
		{ID: "h1", Score: 0.5, Vec: proxrank.Vector{0, -0.5}},
		{ID: "h2", Score: 1.0, Vec: proxrank.Vector{0, 1}},
	})
	r2 := mk("restaurants", []proxrank.Tuple{
		{ID: "r1", Score: 1.0, Vec: proxrank.Vector{1, 1}},
		{ID: "r2", Score: 0.8, Vec: proxrank.Vector{-2, 2}},
	})
	r3 := mk("theaters", []proxrank.Tuple{
		{ID: "t1", Score: 1.0, Vec: proxrank.Vector{-1, 1}},
		{ID: "t2", Score: 0.4, Vec: proxrank.Vector{-2, -2}},
	})
	return []*proxrank.Relation{r1, r2, r3}
}

// TestTopKPaperExample runs the library end to end on the paper's Table 1
// data: the top combination is h2 × r1 × t1 with score −7.
func TestTopKPaperExample(t *testing.T) {
	rels := smallRelations(t)
	res, err := proxrank.TopK(proxrank.Vector{0, 0}, rels, proxrank.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.DNF {
		t.Fatal("unexpected DNF")
	}
	if len(res.Combinations) != 3 {
		t.Fatalf("got %d combinations", len(res.Combinations))
	}
	top := res.Combinations[0]
	if math.Abs(top.Score-(-7)) > 0.01 {
		t.Fatalf("top score = %v, want -7", top.Score)
	}
	ids := []string{top.Tuples[0].ID, top.Tuples[1].ID, top.Tuples[2].ID}
	if ids[0] != "h2" || ids[1] != "r1" || ids[2] != "t1" {
		t.Fatalf("top combination = %v", ids)
	}
	if res.Stats.SumDepths == 0 {
		t.Fatal("no accesses recorded")
	}
}

// TestTopKAgreesAcrossConfigurations: every option combination over every
// kind of input returns the oracle's scores.
func TestTopKAgreesAcrossConfigurations(t *testing.T) {
	rels := smallRelations(t)
	q := proxrank.Vector{0.2, -0.1}
	want, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	kinds := inputKinds(t, rels, 2)
	for _, algo := range []proxrank.Algorithm{proxrank.CBRR, proxrank.CBPA, proxrank.TBRR, proxrank.TBPA} {
		for _, access := range []proxrank.AccessKind{proxrank.DistanceAccess, proxrank.ScoreAccess} {
			opts := proxrank.Options{K: 4, Algorithm: algo, Access: access}
			for _, kind := range kinds {
				res, err := kind.topK(q, opts)
				if err != nil {
					t.Fatalf("%v/%v/%s: %v", algo, access, kind.name, err)
				}
				for i := range want {
					if math.Abs(res.Combinations[i].Score-want[i].Score) > 1e-9 {
						t.Fatalf("%v/%v/%s: scores %v vs oracle %v",
							algo, access, kind.name, res.Combinations[i].Score, want[i].Score)
					}
				}
			}
		}
	}
}

func TestTopKValidation(t *testing.T) {
	rels := smallRelations(t)
	q := proxrank.Vector{0, 0}
	if _, err := proxrank.TopK(q, rels, proxrank.Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := proxrank.TopK(q, rels, proxrank.Options{K: 1, Weights: proxrank.Weights{Ws: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := proxrank.TopK(proxrank.Vector{0}, rels, proxrank.Options{K: 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	// Mismatched access kind through TopKFromSources.
	src := mustOpen(t, rels[0], proxrank.ScoreAccess, nil)
	src2 := mustOpen(t, rels[1], proxrank.ScoreAccess, nil)
	if _, err := proxrank.TopKFromSources(q, []proxrank.Source{src, src2},
		proxrank.Options{K: 1, Access: proxrank.DistanceAccess}); err == nil {
		t.Error("access mismatch accepted")
	}
}

func TestMustTopKPanics(t *testing.T) {
	rels := smallRelations(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustTopK did not panic on invalid options")
		}
	}()
	proxrank.MustTopK(proxrank.Vector{0, 0}, rels, proxrank.Options{K: 0})
}

func TestSyntheticAndCityDatasets(t *testing.T) {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.BaseTuples = 50
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 || rels[0].Len() != 50 {
		t.Fatalf("synthetic shape %d/%d", len(rels), rels[0].Len())
	}
	codes := proxrank.CityCodes()
	if len(codes) != 5 {
		t.Fatalf("city codes = %v", codes)
	}
	cityRels, q, landmark, err := proxrank.CityDataset("SF")
	if err != nil {
		t.Fatal(err)
	}
	if len(cityRels) != 3 || q.Dim() != 2 || landmark == "" {
		t.Fatalf("city dataset shape: %d rels, q %v, %q", len(cityRels), q, landmark)
	}
	if _, _, _, err := proxrank.CityDataset("XX"); err == nil {
		t.Fatal("unknown city accepted")
	}
}

func TestCSVRoundTripPublic(t *testing.T) {
	rels := smallRelations(t)
	var buf bytes.Buffer
	if err := proxrank.WriteRelationCSV(&buf, rels[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "id,score,x1,x2") {
		t.Fatalf("csv header: %q", buf.String()[:20])
	}
	back, err := proxrank.ReadRelationCSV(&buf, "hotels", 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rels[0].Len() {
		t.Fatal("csv round trip lost tuples")
	}
	dir := t.TempDir()
	if err := proxrank.SaveRelationCSV(dir+"/r.csv", rels[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := proxrank.LoadRelationCSV(dir+"/r.csv", "", 1); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPublicAPIRandom: the public TopK equals NaiveTopK on random
// synthetic data across algorithms (the end-to-end version of the core
// equivalence property).
func TestQuickPublicAPIRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := proxrank.DefaultSyntheticConfig()
		cfg.Relations = 2 + r.Intn(2)
		cfg.BaseTuples = 5 + r.Intn(10)
		cfg.Density = 50
		cfg.Seed = seed
		rels, err := proxrank.SyntheticRelations(cfg)
		if err != nil {
			return false
		}
		q := proxrank.Vector{r.NormFloat64() * 0.3, r.NormFloat64() * 0.3}
		opts := proxrank.Options{K: 1 + r.Intn(4)}
		want, err := proxrank.NaiveTopK(q, rels, opts)
		if err != nil {
			return false
		}
		for _, algo := range []proxrank.Algorithm{proxrank.CBPA, proxrank.TBPA} {
			opts.Algorithm = algo
			res, err := proxrank.TopK(q, rels, opts)
			if err != nil || res.DNF {
				return false
			}
			for i := range want {
				if math.Abs(res.Combinations[i].Score-want[i].Score) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
