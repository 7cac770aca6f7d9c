//go:build slow

package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// TestMergedSourceProperty is the heavyweight randomized form of the
// ordering invariant: across random relations (varying size, dimension,
// tie density), shard counts, grid or overlapping shards, and access
// kinds, a merged stream of random shards must emit exactly the sequence
// of the unsharded source. Gated behind -tags=slow; the always-on tests cover
// the same invariant on fixed seeds.
func TestMergedSourceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		size := 1 + r.Intn(300)
		dim := 1 + r.Intn(4)
		gridVals := 2 + r.Intn(8) // coarse grids force distance ties
		scoreVals := 1 + r.Intn(6)
		tuples := make([]Tuple, size)
		for i := range tuples {
			v := vec.New(dim)
			for c := range v {
				v[c] = float64(r.Intn(gridVals))
			}
			tuples[i] = Tuple{
				ID:    fmt.Sprintf("r%d-%d", trial, i),
				Score: 0.1 + 0.1*float64(r.Intn(scoreVals)),
				Vec:   v,
			}
		}
		rel, err := New(fmt.Sprintf("prop%d", trial), 1.0, tuples)
		if err != nil {
			t.Fatal(err)
		}
		shards := 1 + r.Intn(9)
		l := BothLayouts(t, rel, shards)[r.Intn(2)]
		s := l.Sharded
		q := vec.New(dim)
		for c := range q {
			q[c] = r.NormFloat64() * float64(gridVals)
		}
		label := fmt.Sprintf("trial %d (size=%d dim=%d shards=%d/%d %s)",
			trial, size, dim, s.NumShards(), shards, l.Name)

		wantScore := drain(t, mustOpen(t, rel, ScoreAccess, nil))
		gotScore, err := OpenSource(s, ScoreAccess, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSequence(t, label+" score", drain(t, gotScore), wantScore)

		wantSorted, err := OpenSource(rel, DistanceAccess, q)
		if err != nil {
			t.Fatal(err)
		}
		gotSorted, err := mergedSorted(s, q)
		if err != nil {
			t.Fatal(err)
		}
		sameSequence(t, label+" distance-sorted", drain(t, gotSorted), drain(t, wantSorted))

		wantTree, err := OpenSource(oneShard(t, rel), DistanceAccess, q)
		if err != nil {
			t.Fatal(err)
		}
		gotTree, err := OpenSource(s, DistanceAccess, q)
		if err != nil {
			t.Fatal(err)
		}
		sameSequence(t, label+" distance-rtree", drain(t, gotTree), drain(t, wantTree))
	}
}
