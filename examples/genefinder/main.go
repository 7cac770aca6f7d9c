// The genefinder example is the paper's bioinformatics motivation (§1
// case iii): discover orthologous genes across organisms given a target
// annotation profile. Expression profiles are compared by direction —
// magnitude does not matter — so every profile and the motif are scaled to
// unit length first: between unit vectors ‖a−b‖² = 2(1 − cos(a, b)), so
// the paper's squared-Euclidean terms rank them by cosine similarity, and
// the engine runs with its tight bound.
//
// Run with: go run ./examples/genefinder
package main

import (
	"fmt"
	"log"
	"math/rand"

	proxrank "repro"
)

const conditions = 16 // expression measurements per gene

func organism(name string, genes int, seed int64, motif proxrank.Vector) (*proxrank.Relation, error) {
	r := rand.New(rand.NewSource(seed))
	tuples := make([]proxrank.Tuple, genes)
	for j := range tuples {
		v := make(proxrank.Vector, conditions)
		if j%7 == 0 {
			// A conserved family: the shared motif plus noise.
			for k := range v {
				v[k] = motif[k] + r.NormFloat64()*0.3
			}
		} else {
			for k := range v {
				v[k] = r.NormFloat64() * 2
			}
		}
		tuples[j] = proxrank.Tuple{
			ID:    fmt.Sprintf("%s-g%03d", name, j),
			Score: 0.1 + 0.9*r.Float64(), // annotation confidence
			Vec:   v.ScaleInPlace(1 / v.Norm()),
		}
	}
	return proxrank.NewRelation(name, 1.0, tuples)
}

func main() {
	r := rand.New(rand.NewSource(99))
	motif := make(proxrank.Vector, conditions)
	for k := range motif {
		motif[k] = r.NormFloat64() * 2
	}
	unitMotif := motif.Clone().ScaleInPlace(1 / motif.Norm())

	yeast, err := organism("yeast", 200, 10, motif)
	if err != nil {
		log.Fatal(err)
	}
	fly, err := organism("fly", 250, 11, motif)
	if err != nil {
		log.Fatal(err)
	}
	worm, err := organism("worm", 180, 12, motif)
	if err != nil {
		log.Fatal(err)
	}
	rels := []*proxrank.Relation{yeast, fly, worm}

	res, err := proxrank.TopK(unitMotif, rels, proxrank.Options{
		K:         5,
		Transform: proxrank.IdentityScore,
		// w = 1 on ‖a−b‖² = 2(1 − cos) weighs a pair as w = 2 on 1 − cos.
		Weights: proxrank.Weights{Ws: 0.3, Wq: 1, Wmu: 1},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Candidate ortholog triples (yeast × fly × worm):")
	for i, c := range res.Combinations {
		fmt.Printf("%d. [%.3f] %s  %s  %s\n", i+1, c.Score,
			c.Tuples[0].ID, c.Tuples[1].ID, c.Tuples[2].ID)
	}
	fmt.Printf("Read %d of %d genes (depths %v).\n",
		res.Stats.SumDepths, yeast.Len()+fly.Len()+worm.Len(), res.Stats.Depths)
}
