// The streaming example shows the pipelined form of the operator: results
// arrive one at a time, best first, each certified before it is emitted,
// and the I/O meter only advances for the prefix actually consumed —
// exactly how a rank join operator behaves inside a query pipeline.
//
// Run with: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"

	proxrank "repro"
)

func main() {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Relations = 3
	cfg.BaseTuples = 1000
	cfg.Seed = 2026
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	inputs := make([]proxrank.Input, len(rels))
	for i, r := range rels {
		total += r.Len()
		inputs[i] = r
	}
	query := proxrank.Vector{0, 0}

	sess, err := proxrank.NewQueryInputs(query, inputs, proxrank.Options{K: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close() // a session is open until its consumer says it is over

	fmt.Printf("Streaming the best of %d × %d × %d = %d combinations:\n\n",
		rels[0].Len(), rels[1].Len(), rels[2].Len(),
		rels[0].Len()*rels[1].Len()*rels[2].Len())
	fmt.Println("rank  score     tuples read so far (of", total, "available)")
	for c, err := range sess.Results(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %8.4f  %d\n", sess.Emitted(), c.Score, sess.Stats().SumDepths)
		if sess.Emitted() == sess.K() {
			break
		}
	}
	fmt.Printf("\nEight results certified after touching %.1f%% of the input.\n",
		100*float64(sess.Stats().SumDepths)/float64(total))
}
