package proxrank_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	proxrank "repro"
)

// TestStreamFromSourcesKindValidation is the regression test for the
// missing access-kind check: a score-ordered source handed to a session
// configured for distance access used to be accepted silently, producing
// wrong bounds. It must fail construction, for a session enumerated
// result by result exactly as for TopKFromSources.
func TestStreamFromSourcesKindValidation(t *testing.T) {
	rels := smallRelations(t)
	q := proxrank.Vector{0, 0}
	sources := []proxrank.Source{
		proxrank.NewScoreSource(rels[0]), // wrong kind for DistanceAccess below
		mustDistanceSource(t, rels[1], q),
	}
	_, err := proxrank.NewQuerySources(q, sources, proxrank.Options{K: 1, Access: proxrank.DistanceAccess})
	if err == nil {
		t.Fatal("NewQuerySources accepted a score source under distance access")
	}
	if !strings.Contains(err.Error(), "access kind") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// Same check must hold against the declared kind, matching TopKFromSources.
	_, topkErr := proxrank.TopKFromSources(q, sources, proxrank.Options{K: 1, Access: proxrank.DistanceAccess})
	if topkErr == nil {
		t.Fatal("TopKFromSources accepted the mismatched sources")
	}

	// Consistent sources still construct fine.
	ok := []proxrank.Source{
		proxrank.NewScoreSource(rels[0]),
		proxrank.NewScoreSource(rels[1]),
	}
	if _, err := proxrank.NewQuerySources(q, ok, proxrank.Options{K: 1, Access: proxrank.ScoreAccess}); err != nil {
		t.Fatalf("consistent sources rejected: %v", err)
	}
}

func mustDistanceSource(t testing.TB, rel *proxrank.Relation, q proxrank.Vector) proxrank.Source {
	t.Helper()
	s, err := proxrank.NewDistanceSource(rel, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentSharedIndexQueries hammers one shared Relation and its
// precomputed indexes from many goroutines: TopKContext over shared
// R-tree sources, Stream.NextContext over shared score-order sources,
// and plain TopK — all against the same oracle. Run with -race.
func TestConcurrentSharedIndexQueries(t *testing.T) {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Relations = 2
	cfg.BaseTuples = 150
	cfg.Seed = 41
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := proxrank.Vector{0.2, 0.3}
	want, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}

	rtrees := make([]*proxrank.RTreeIndex, len(rels))
	scores := make([]*proxrank.ScoreIndex, len(rels))
	for i, rel := range rels {
		rtrees[i] = proxrank.NewRTreeIndex(rel)
		scores[i] = proxrank.NewScoreIndex(rel)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) { errs <- err }

	// TopKContext over sources opened from the shared R-tree indexes.
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sources := make([]proxrank.Source, len(rtrees))
			for i, ix := range rtrees {
				s, err := ix.Source(q)
				if err != nil {
					fail(err)
					return
				}
				sources[i] = s
			}
			res, err := proxrank.TopKFromSourcesContext(context.Background(), q, sources, proxrank.Options{K: 4})
			if err != nil {
				fail(err)
				return
			}
			for i := range want {
				if math.Abs(res.Combinations[i].Score-want[i].Score) > 1e-9 {
					fail(errors.New("rtree-index result diverged from oracle"))
					return
				}
			}
		}()
	}

	// Sessions over sources opened from the shared score indexes, driven
	// through NextContext.
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sources := make([]proxrank.Source, len(scores))
			for i, ix := range scores {
				sources[i] = ix.Source()
			}
			st, err := proxrank.NewQuerySources(q, sources, proxrank.Options{K: 1, Access: proxrank.ScoreAccess})
			if err != nil {
				fail(err)
				return
			}
			for i := 0; i < 3; i++ {
				cs, err := st.NextContext(context.Background(), 1)
				if err != nil {
					fail(err)
					return
				}
				if math.Abs(cs[0].Score-want[i].Score) > 1e-9 {
					fail(errors.New("score-index stream diverged from oracle"))
					return
				}
			}
		}()
	}

	// Plain TopK over the same shared relations, mixed in.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := proxrank.TopKContext(context.Background(), q, rels, proxrank.Options{K: 4})
			if err != nil {
				fail(err)
				return
			}
			if math.Abs(res.Combinations[0].Score-want[0].Score) > 1e-9 {
				fail(errors.New("TopKContext result diverged from oracle"))
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTopKContextCancellation: the public entry point honors an expired
// context.
func TestTopKContextCancellation(t *testing.T) {
	rels := smallRelations(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := proxrank.TopKContext(ctx, proxrank.Vector{0, 0}, rels, proxrank.Options{K: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
