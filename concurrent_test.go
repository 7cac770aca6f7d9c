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
		mustOpen(t, rels[0], proxrank.ScoreAccess, nil), // wrong kind for DistanceAccess below
		mustOpen(t, rels[1], proxrank.DistanceAccess, q),
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
		mustOpen(t, rels[0], proxrank.ScoreAccess, nil),
		mustOpen(t, rels[1], proxrank.ScoreAccess, nil),
	}
	if _, err := proxrank.NewQuerySources(q, ok, proxrank.Options{K: 1, Access: proxrank.ScoreAccess}); err != nil {
		t.Fatalf("consistent sources rejected: %v", err)
	}
}

// mustOpen opens in's stream through OpenSource, failing the test on
// error.
func mustOpen(t testing.TB, in proxrank.Input, access proxrank.AccessKind, q proxrank.Vector) proxrank.Source {
	t.Helper()
	s, err := proxrank.OpenSource(in, access, q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentSharedIndexQueries hammers one shared Relation and its
// indexes, built once as a one-shard ShardedRelation, from many
// goroutines: TopKContext over R-tree sources and NextContext over
// score-order sources, each opened through OpenSource from the shared
// partitions, and plain TopK — all against the same oracle. Run with
// -race.
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

	indexes := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		if indexes[i], err = proxrank.NewShardedRelation(rel, 1, proxrank.HashPartition); err != nil {
			t.Fatal(err)
		}
	}
	open := func(access proxrank.AccessKind) ([]proxrank.Source, error) {
		sources := make([]proxrank.Source, len(indexes))
		for i, ix := range indexes {
			s, err := proxrank.OpenSource(ix, access, q)
			if err != nil {
				return nil, err
			}
			sources[i] = s
		}
		return sources, nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) { errs <- err }

	// TopKContext over distance sources opened from the shared R-trees.
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sources, err := open(proxrank.DistanceAccess)
			if err != nil {
				fail(err)
				return
			}
			res, err := proxrank.TopKFromSourcesContext(context.Background(), q, sources, proxrank.Options{K: 4})
			if err != nil {
				fail(err)
				return
			}
			for i := range want {
				if math.Abs(res.Combinations[i].Score-want[i].Score) > 1e-9 {
					fail(errors.New("one-shard R-tree result diverged from oracle"))
					return
				}
			}
		}()
	}

	// Sessions over score sources opened from the shared score orders,
	// driven through NextContext.
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sources, err := open(proxrank.ScoreAccess)
			if err != nil {
				fail(err)
				return
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
					fail(errors.New("one-shard score stream diverged from oracle"))
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
