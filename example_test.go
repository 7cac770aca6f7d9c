package proxrank_test

import (
	"context"
	"errors"
	"fmt"

	proxrank "repro"
	"repro/api"
)

// ExampleTopK answers the paper's worked example (Table 1): three
// relations of two tuples each, query at the origin, unit weights.
func ExampleTopK() {
	r1, _ := proxrank.NewRelation("R1", 1.0, []proxrank.Tuple{
		{ID: "τ1(1)", Score: 0.5, Vec: proxrank.Vector{0, -0.5}},
		{ID: "τ1(2)", Score: 1.0, Vec: proxrank.Vector{0, 1}},
	})
	r2, _ := proxrank.NewRelation("R2", 1.0, []proxrank.Tuple{
		{ID: "τ2(1)", Score: 1.0, Vec: proxrank.Vector{1, 1}},
		{ID: "τ2(2)", Score: 0.8, Vec: proxrank.Vector{-2, 2}},
	})
	r3, _ := proxrank.NewRelation("R3", 1.0, []proxrank.Tuple{
		{ID: "τ3(1)", Score: 1.0, Vec: proxrank.Vector{-1, 1}},
		{ID: "τ3(2)", Score: 0.4, Vec: proxrank.Vector{-2, -2}},
	})

	res, err := proxrank.TopK(proxrank.Vector{0, 0},
		[]*proxrank.Relation{r1, r2, r3}, proxrank.Options{K: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, c := range res.Combinations {
		fmt.Printf("%.1f %s %s %s\n", c.Score, c.Tuples[0].ID, c.Tuples[1].ID, c.Tuples[2].ID)
	}
	// Output:
	// -7.0 τ1(2) τ2(1) τ3(1)
	// -8.4 τ1(1) τ2(1) τ3(1)
}

// ExampleNewQuery runs a ranked-enumeration session from a
// transport-neutral api.Request: the initial top-K is delivered as
// certified, and enumeration continues past K on the same engine state
// without re-reading input.
func ExampleNewQuery() {
	r1, _ := proxrank.NewRelation("hotels", 1.0, []proxrank.Tuple{
		{ID: "h1", Score: 0.9, Vec: proxrank.Vector{0.1, 0}},
		{ID: "h2", Score: 0.2, Vec: proxrank.Vector{5, 5}},
	})
	r2, _ := proxrank.NewRelation("restaurants", 1.0, []proxrank.Tuple{
		{ID: "r1", Score: 0.8, Vec: proxrank.Vector{0, 0.2}},
		{ID: "r2", Score: 0.3, Vec: proxrank.Vector{-4, 4}},
	})

	req := &api.Request{
		Query:     []float64{0, 0},
		Relations: []string{"hotels", "restaurants"},
		K:         2,
	}
	sess, err := proxrank.NewQuery(req, r1, r2)
	if err != nil {
		fmt.Println(err)
		return
	}
	top, _ := sess.Next(req.K) // the top-K, delivered as certified
	for i, c := range top {
		fmt.Printf("rank %d: %s+%s\n", i+1, c.Tuples[0].ID, c.Tuples[1].ID)
	}
	more, err := sess.Next(2) // ranks 3-4, same run
	if err != nil && !errors.Is(err, proxrank.ErrStreamDone) {
		fmt.Println(err)
		return
	}
	fmt.Printf("enumerated %d more past K\n", len(more))
	// Output:
	// rank 1: h1+r1
	// rank 2: h1+r2
	// enumerated 2 more past K
}

// ExampleQuery_Results iterates a session lazily in rank order; k need
// not be known up front — break whenever enough has been seen.
func ExampleQuery_Results() {
	r1, _ := proxrank.NewRelation("R1", 1.0, []proxrank.Tuple{
		{ID: "a1", Score: 0.9, Vec: proxrank.Vector{0.1, 0}},
		{ID: "a2", Score: 0.2, Vec: proxrank.Vector{5, 5}},
	})
	r2, _ := proxrank.NewRelation("R2", 1.0, []proxrank.Tuple{
		{ID: "b1", Score: 0.8, Vec: proxrank.Vector{0, 0.2}},
		{ID: "b2", Score: 0.3, Vec: proxrank.Vector{-4, 4}},
	})
	req := &api.Request{Query: []float64{0, 0}, Relations: []string{"R1", "R2"}, K: 1}
	sess, err := proxrank.NewQuery(req, r1, r2)
	if err != nil {
		fmt.Println(err)
		return
	}
	n := 0
	for c, err := range sess.Results(context.Background()) {
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s+%s\n", c.Tuples[0].ID, c.Tuples[1].ID)
		if n++; n == 3 { // stop whenever enough has been seen
			break
		}
	}
	// Output:
	// a1+b1
	// a1+b2
	// a2+b1
}

// ExampleQuery_Results_exhaustion ranges over the whole cross product of
// the same data: exhaustion ends the sequence silently.
func ExampleQuery_Results_exhaustion() {
	r1, _ := proxrank.NewRelation("R1", 1.0, []proxrank.Tuple{
		{ID: "a1", Score: 0.9, Vec: proxrank.Vector{0.1, 0}},
		{ID: "a2", Score: 0.2, Vec: proxrank.Vector{5, 5}},
	})
	r2, _ := proxrank.NewRelation("R2", 1.0, []proxrank.Tuple{
		{ID: "b1", Score: 0.8, Vec: proxrank.Vector{0, 0.2}},
		{ID: "b2", Score: 0.3, Vec: proxrank.Vector{-4, 4}},
	})
	sess, err := proxrank.NewQueryInputs(proxrank.Vector{0, 0},
		[]proxrank.Input{r1, r2}, proxrank.Options{K: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	for c, err := range sess.Results(context.Background()) {
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s+%s\n", c.Tuples[0].ID, c.Tuples[1].ID)
	}
	// Output:
	// a1+b1
	// a1+b2
	// a2+b1
	// a2+b2
}
