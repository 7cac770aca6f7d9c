package proxrank_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	proxrank "repro"
)

func TestStreamMatchesTopKPrefix(t *testing.T) {
	rels := smallRelations(t)
	q := proxrank.Vector{0, 0}
	want, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := proxrank.NewQueryInputs(q, inputsOf(rels), proxrank.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, err := nextOne(s)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if math.Abs(got.Score-w.Score) > 1e-9 {
			t.Fatalf("result %d score %v, want %v", i, got.Score, w.Score)
		}
	}
	if _, err := nextOne(s); !errors.Is(err, proxrank.ErrStreamDone) {
		t.Fatalf("after exhaustion: %v", err)
	}
	if s.Emitted() != len(want) {
		t.Fatalf("Emitted = %d", s.Emitted())
	}
	if s.Stats().SumDepths == 0 {
		t.Fatal("no I/O recorded")
	}
}

func TestStreamScoreAccessAndValidation(t *testing.T) {
	rels := smallRelations(t)
	q := proxrank.Vector{0, 0}
	s, err := proxrank.NewQueryInputs(q, inputsOf(rels), proxrank.Options{K: 1, Access: proxrank.ScoreAccess})
	if err != nil {
		t.Fatal(err)
	}
	first, err := nextOne(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first.Score-want[0].Score) > 1e-9 {
		t.Fatalf("stream top %v, oracle %v", first.Score, want[0].Score)
	}
	if _, err := proxrank.NewQueryInputs(q, inputsOf(rels), proxrank.Options{K: 1, Weights: proxrank.Weights{Ws: -1}}); err == nil {
		t.Fatal("bad weights accepted")
	}
	if _, err := proxrank.NewQueryInputs(proxrank.Vector{0}, inputsOf(rels), proxrank.Options{K: 1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// TestParallelQueries runs many concurrent TopK and Query sessions over
// shared immutable relations; run with -race to check for data races
// (sources are per-query, relations are read-only).
func TestParallelQueries(t *testing.T) {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Relations = 3
	cfg.BaseTuples = 120
	cfg.Seed = 99
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := proxrank.Vector{0, 0}
	want, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Every kind of input — sorted relations, sharded and mapped R-trees,
	// shared indexes — is read by several goroutines at once.
	kinds := inputKinds(t, rels, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := proxrank.Options{K: 5}
			if g%4 == 1 {
				opts.Algorithm = proxrank.CBPA
			}
			res, err := kinds[g%len(kinds)].topK(q, opts)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				if math.Abs(res.Combinations[i].Score-want[i].Score) > 1e-9 {
					errs <- errors.New("parallel result diverged")
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := proxrank.NewQueryInputs(q, inputsOf(rels), proxrank.Options{K: 1})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 3; i++ {
				got, err := nextOne(s)
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(got.Score-want[i].Score) > 1e-9 {
					errs <- errors.New("parallel stream diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
