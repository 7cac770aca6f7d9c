package service

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	proxrank "repro"
	"repro/api"
	"repro/internal/shardrpc"
)

// testRelation builds a deterministic random relation.
func testRelation(t testing.TB, name string, seed int64, size, dim int) *proxrank.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]proxrank.Tuple, size)
	for i := range tuples {
		v := make([]float64, dim)
		for c := range v {
			v[c] = r.NormFloat64()
		}
		tuples[i] = proxrank.Tuple{
			ID:    name + "-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)),
			Score: 0.05 + 0.95*r.Float64(),
			Vec:   v,
		}
	}
	rel, err := proxrank.NewRelation(name, 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func codeOf(err error) api.ErrorCode {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// TestCatalogRegisterEvict walks the register/evict state machine as a
// table of steps over one shared catalog.
func TestCatalogRegisterEvict(t *testing.T) {
	rel := testRelation(t, "hotels", 1, 20, 2)
	rel2 := testRelation(t, "hotels", 2, 15, 2)
	c := NewCatalog()

	steps := []struct {
		name     string
		op       func() error
		wantCode api.ErrorCode // "" means success
	}{
		{"register empty name", func() error { return c.Register("", rel) }, api.CodeBadRequest},
		{"register nil relation", func() error { return c.Register("hotels", nil) }, api.CodeBadRequest},
		{"register name mismatch", func() error { return c.Register("lodging", rel) }, api.CodeBadRequest},
		{"register hotels", func() error { return c.Register("hotels", rel) }, ""},
		{"register duplicate", func() error { return c.Register("hotels", rel2) }, api.CodeConflict},
		{"get hotels", func() error { _, err := c.Get("hotels"); return err }, ""},
		{"get unknown", func() error { _, err := c.Get("nope"); return err }, api.CodeNotFound},
		{"resolve pair fails on missing", func() error { _, err := c.Resolve([]string{"hotels", "nope"}); return err }, api.CodeNotFound},
		{"evict hotels", func() error {
			if !c.Evict("hotels") {
				return errors.New("evict reported not-registered")
			}
			return nil
		}, ""},
		{"get after evict", func() error { _, err := c.Get("hotels"); return err }, api.CodeNotFound},
		{"evict again is false", func() error {
			if c.Evict("hotels") {
				return errors.New("second evict reported registered")
			}
			return nil
		}, ""},
		{"re-register after evict", func() error { return c.Register("hotels", rel2) }, ""},
		{"register remote without owner groups", func() error {
			return c.RegisterRemote("far", &shardrpc.RemoteRelation{Name: "far", MaxScore: 1, Dim: 2, Tuples: 10, Shards: 2})
		}, api.CodeBadRequest},
	}
	for _, step := range steps {
		err := step.op()
		if step.wantCode == "" && err != nil {
			t.Fatalf("%s: unexpected error %v", step.name, err)
		}
		if step.wantCode != "" && codeOf(err) != step.wantCode {
			t.Fatalf("%s: error %v, want code %s", step.name, err, step.wantCode)
		}
	}
	if got := c.Names(); len(got) != 1 || got[0] != "hotels" {
		t.Fatalf("Names() = %v, want [hotels]", got)
	}
}

// TestCatalogGenerationBump: re-registering a name after eviction must
// yield a fresh generation, so stale cache entries can never match.
func TestCatalogGenerationBump(t *testing.T) {
	c := NewCatalog()
	rel := testRelation(t, "r", 3, 10, 2)
	if err := c.Register("r", rel); err != nil {
		t.Fatal(err)
	}
	e1, err := c.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	c.Evict("r")
	if err := c.Register("r", rel); err != nil {
		t.Fatal(err)
	}
	e2, err := c.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Generation() <= e1.Generation() {
		t.Fatalf("generation did not advance: %d then %d", e1.Generation(), e2.Generation())
	}
}

// TestCatalogLoadCSVFile registers a relation from disk and infers
// σ_max.
func TestCatalogLoadCSVFile(t *testing.T) {
	rel := testRelation(t, "disk", 4, 12, 3)
	path := filepath.Join(t.TempDir(), "disk.csv")
	if err := proxrank.SaveRelationCSV(path, rel); err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.LoadCSVFile("disk", path, 0); err != nil {
		t.Fatal(err)
	}
	e, err := c.Get("disk")
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation().Len() != rel.Len() || e.Relation().Dim() != rel.Dim() {
		t.Fatalf("loaded %d tuples dim %d, want %d dim %d",
			e.Relation().Len(), e.Relation().Dim(), rel.Len(), rel.Dim())
	}
	if err := c.LoadCSVFile("missing", filepath.Join(t.TempDir(), "nope.csv"), 0); err == nil {
		t.Fatal("LoadCSVFile succeeded on a missing file")
	}
	infos := c.Infos()
	if len(infos) != 1 || infos[0].Name != "disk" || infos[0].Tuples != rel.Len() {
		t.Fatalf("Infos() = %+v", infos)
	}
}
