package cities

import (
	"testing"

	"repro/internal/relation"
)

func TestAllFiveCities(t *testing.T) {
	cs := All()
	if len(cs) != 5 {
		t.Fatalf("cities = %d, want 5", len(cs))
	}
	codes := map[string]bool{}
	for _, c := range cs {
		codes[c.Code] = true
	}
	for _, code := range []string{"SF", "NY", "BO", "DA", "HO"} {
		if !codes[code] {
			t.Errorf("missing city %s", code)
		}
	}
}

func TestByCode(t *testing.T) {
	c, err := ByCode("SF")
	if err != nil || c.Name != "San Francisco" {
		t.Fatalf("ByCode(SF) = %v, %v", c.Name, err)
	}
	if _, err := ByCode("XX"); err == nil {
		t.Fatal("unknown code accepted")
	}
}

func TestRelationsShape(t *testing.T) {
	for _, c := range All() {
		rels, err := c.Relations()
		if err != nil {
			t.Fatalf("%s: %v", c.Code, err)
		}
		if len(rels) != 3 {
			t.Fatalf("%s: %d relations, want 3 (hotels, restaurants, theaters)", c.Code, len(rels))
		}
		for _, rel := range rels {
			if rel.Dim() != 2 {
				t.Errorf("%s/%s: dim %d, want 2 (lat/lon)", c.Code, rel.Name, rel.Dim())
			}
			if rel.Len() < 20 {
				t.Errorf("%s/%s: only %d POIs", c.Code, rel.Name, rel.Len())
			}
			for i := 0; i < rel.Len(); i++ {
				s := rel.At(i).Score
				if s < 0.2-1e-12 || s > 1 {
					t.Fatalf("%s/%s: rating score %v outside [0.2, 1]", c.Code, rel.Name, s)
				}
			}
		}
		// Restaurants outnumber theaters, as in real POI data.
		if rels[1].Len() <= rels[2].Len() {
			t.Errorf("%s: restaurants (%d) should outnumber theaters (%d)",
				c.Code, rels[1].Len(), rels[2].Len())
		}
		if c.Query().Dim() != 2 {
			t.Errorf("%s: query dim %d", c.Code, c.Query().Dim())
		}
	}
}

func TestDeterminism(t *testing.T) {
	c, _ := ByCode("BO")
	a, err := c.Relations()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Relations()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Len() != b[i].Len() {
			t.Fatal("lengths differ across generations")
		}
		for j := 0; j < a[i].Len(); j++ {
			if !a[i].At(j).Vec.Equal(b[i].At(j).Vec) || a[i].At(j).Score != b[i].At(j).Score {
				t.Fatal("city generation not deterministic")
			}
		}
	}
}

func TestCitiesDiffer(t *testing.T) {
	sf, _ := ByCode("SF")
	ny, _ := ByCode("NY")
	a, err := sf.Relations()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ny.Relations()
	if err != nil {
		t.Fatal(err)
	}
	if a[0].At(0).Vec.Equal(b[0].At(0).Vec) {
		t.Fatal("different cities produced identical data")
	}
}

func TestSourcesUsable(t *testing.T) {
	c, _ := ByCode("HO")
	rels, err := c.Relations()
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		src, err := relation.OpenSource(rel, relation.DistanceAccess, c.Query())
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for i := 0; i < 10; i++ {
			tup, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			d := tup.Vec.Dist(c.Query())
			if d < prev {
				t.Fatal("distance order violated")
			}
			prev = d
		}
	}
}
