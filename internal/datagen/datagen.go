// Package datagen builds the synthetic data sets of the paper's
// experimental study (Appendix D.1): every relation draws tuple feature
// vectors from a d-dimensional uniform distribution centered at the origin
// with a target density ρ (tuples per volume unit), and scores from a
// uniform distribution. The skewness parameter ρ1/ρ2 raises the density of
// the first relation while all relations share one region of space.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/vec"
)

// SyntheticConfig parameterizes a synthetic data set (paper Table 2).
type SyntheticConfig struct {
	// Relations is n, the number of relations (≥ 2).
	Relations int
	// Dim is d, the feature-space dimensionality.
	Dim int
	// Density is ρ, tuples per volume unit.
	Density float64
	// Skew is ρ1/ρ2: the density multiplier of relation 1 relative to the
	// others. 1 means unskewed.
	Skew float64
	// BaseTuples is the tuple count of an unskewed relation; together with
	// Density it fixes the shared region volume V = BaseTuples/Density.
	BaseTuples int
	// MinScore keeps scores strictly positive (log transform safety).
	MinScore float64
	// Seed drives the deterministic generator.
	Seed int64
}

// Defaults returns the paper's default operating point (Table 2 bold
// values): n = 2, d = 2, ρ = 100, skew 1.
func Defaults() SyntheticConfig {
	return SyntheticConfig{
		Relations:  2,
		Dim:        2,
		Density:    100,
		Skew:       1,
		BaseTuples: 400,
		MinScore:   0.01,
	}
}

// Validate checks the configuration.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.Relations < 2:
		return fmt.Errorf("datagen: need ≥ 2 relations, got %d", c.Relations)
	case c.Dim < 1:
		return fmt.Errorf("datagen: need dim ≥ 1, got %d", c.Dim)
	case c.Density <= 0:
		return fmt.Errorf("datagen: density must be positive, got %v", c.Density)
	case c.Skew <= 0:
		return fmt.Errorf("datagen: skew must be positive, got %v", c.Skew)
	case c.BaseTuples < 1:
		return fmt.Errorf("datagen: need ≥ 1 base tuples, got %d", c.BaseTuples)
	case c.MinScore <= 0 || c.MinScore >= 1:
		return fmt.Errorf("datagen: MinScore must be in (0,1), got %v", c.MinScore)
	}
	return nil
}

// SideLength returns the edge length of the shared hypercube region:
// L = (BaseTuples/Density)^(1/Dim).
func (c SyntheticConfig) SideLength() float64 {
	return math.Pow(float64(c.BaseTuples)/c.Density, 1/float64(c.Dim))
}

// Synthetic generates the relations deterministically from the seed.
func Synthetic(c SyntheticConfig) ([]*relation.Relation, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(c.Seed))
	side := c.SideLength()
	rels := make([]*relation.Relation, c.Relations)
	for i := 0; i < c.Relations; i++ {
		count := c.BaseTuples
		if i == 0 {
			count = int(math.Round(float64(c.BaseTuples) * c.Skew))
		}
		if count < 1 {
			count = 1
		}
		tuples := make([]relation.Tuple, count)
		for j := range tuples {
			v := vec.New(c.Dim)
			for k := range v {
				v[k] = (r.Float64() - 0.5) * side
			}
			tuples[j] = relation.Tuple{
				ID:    fmt.Sprintf("r%d_%d", i+1, j),
				Score: c.MinScore + (1-c.MinScore)*r.Float64(),
				Vec:   v,
			}
		}
		rel, err := relation.New(fmt.Sprintf("R%d", i+1), 1.0, tuples)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
	}
	return rels, nil
}
