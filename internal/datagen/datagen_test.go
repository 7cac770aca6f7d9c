package datagen

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultsValid(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.Relations = 1 },
		func(c *SyntheticConfig) { c.Dim = 0 },
		func(c *SyntheticConfig) { c.Density = 0 },
		func(c *SyntheticConfig) { c.Skew = 0 },
		func(c *SyntheticConfig) { c.BaseTuples = 0 },
		func(c *SyntheticConfig) { c.MinScore = 0 },
		func(c *SyntheticConfig) { c.MinScore = 1 },
	}
	for i, mut := range cases {
		c := Defaults()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := Synthetic(c); err == nil {
			t.Errorf("case %d generated", i)
		}
	}
}

func TestSyntheticShape(t *testing.T) {
	c := Defaults()
	c.Relations = 3
	c.Seed = 42
	rels, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 3 {
		t.Fatalf("relations = %d", len(rels))
	}
	side := c.SideLength()
	for _, rel := range rels {
		if rel.Len() != c.BaseTuples {
			t.Fatalf("%s has %d tuples, want %d", rel.Name, rel.Len(), c.BaseTuples)
		}
		if rel.Dim() != c.Dim {
			t.Fatalf("dim = %d", rel.Dim())
		}
		for i := 0; i < rel.Len(); i++ {
			tup := rel.At(i)
			for _, x := range tup.Vec {
				if math.Abs(x) > side/2+1e-12 {
					t.Fatalf("coordinate %v outside [-%v/2, %v/2]", x, side, side)
				}
			}
			if tup.Score < c.MinScore || tup.Score > 1 {
				t.Fatalf("score %v outside [%v, 1]", tup.Score, c.MinScore)
			}
		}
	}
}

func TestSyntheticSkew(t *testing.T) {
	c := Defaults()
	c.Skew = 4
	rels, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	if rels[0].Len() != 4*c.BaseTuples {
		t.Fatalf("skewed relation has %d tuples, want %d", rels[0].Len(), 4*c.BaseTuples)
	}
	if rels[1].Len() != c.BaseTuples {
		t.Fatalf("unskewed relation has %d tuples, want %d", rels[1].Len(), c.BaseTuples)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	c := Defaults()
	c.Seed = 7
	a, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := 0; j < a[i].Len(); j++ {
			if !a[i].At(j).Vec.Equal(b[i].At(j).Vec) || a[i].At(j).Score != b[i].At(j).Score {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c2 := c
	c2.Seed = 8
	d, err := Synthetic(c2)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].At(0).Vec.Equal(d[0].At(0).Vec) {
		t.Fatal("different seeds produced identical first tuple")
	}
}

// Property: the empirical density of relation 2..n matches ρ by
// construction (count / volume) and the side length solves the density
// equation.
func TestQuickDensityEquation(t *testing.T) {
	f := func(seed int64) bool {
		s := seed
		if s < 0 {
			s = -s
		}
		c := Defaults()
		c.Seed = seed
		c.Density = 20 + float64(s%7)*30
		c.Dim = 1 + int(s%4)
		side := c.SideLength()
		vol := math.Pow(side, float64(c.Dim))
		return math.Abs(vol*c.Density-float64(c.BaseTuples)) < 1e-6*float64(c.BaseTuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
