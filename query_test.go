package proxrank_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"

	proxrank "repro"
	"repro/api"
)

func syntheticPair(t *testing.T, seed int64, n int) ([]*proxrank.Relation, proxrank.Vector) {
	t.Helper()
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.Relations = 2
	cfg.BaseTuples = n
	cfg.Seed = seed
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rels, proxrank.Vector{0.05, -0.1}
}

func inputsOf(rels []*proxrank.Relation) []proxrank.Input {
	inputs := make([]proxrank.Input, len(rels))
	for i, r := range rels {
		inputs[i] = r
	}
	return inputs
}

// nextOne pulls one result from a session.
func nextOne(q *proxrank.Query) (proxrank.Combination, error) {
	out, err := q.Next(1)
	if err != nil {
		return proxrank.Combination{}, err
	}
	return out[0], nil
}

// TestQuerySessionMatchesTopK: draining a session to K reproduces the
// batch answer exactly (it IS the batch path now), and Next afterwards
// keeps enumerating past K in the order of the full sorted cross
// product, without restarting the run.
func TestQuerySessionMatchesTopK(t *testing.T) {
	rels, q := syntheticPair(t, 11, 20)
	opts := proxrank.Options{K: 5}
	batch, err := proxrank.TopK(q, rels, opts)
	if err != nil || batch.DNF {
		t.Fatalf("TopK: %v (dnf %v)", err, batch.DNF)
	}

	sess, err := proxrank.NewQueryInputs(q, inputsOf(rels), opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Next(5)
	if err != nil {
		t.Fatalf("Next(5): %v", err)
	}
	if !reflect.DeepEqual(first, batch.Combinations) {
		t.Fatalf("session prefix differs from batch:\n%v\n%v", first, batch.Combinations)
	}
	pullsAtK := sess.Stats().SumDepths
	if got := batch.Stats.SumDepths; got != pullsAtK {
		t.Errorf("session paid %d accesses for K, batch paid %d", pullsAtK, got)
	}
	// The session still holds scored combinations for ranks past K, never
	// more than its peak.
	if b, peak := sess.Buffered(), sess.Stats().PeakBuffered; b < 1 || b > peak {
		t.Errorf("Buffered = %d after 5 results, peak %d", b, peak)
	}

	// Enumerate past K on the same engine state: ranks 6..10 must match
	// the oracle, and resuming must not have restarted the input streams
	// (emitted count keeps growing on one session).
	oracle, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	more, err := sess.Next(5)
	if err != nil {
		t.Fatalf("Next past K: %v", err)
	}
	if sess.Emitted() != 10 {
		t.Errorf("Emitted = %d, want 10", sess.Emitted())
	}
	for i, c := range more {
		if want := oracle[5+i]; c.Score != want.Score {
			t.Errorf("rank %d past K: score %v, want %v", 6+i, c.Score, want.Score)
		}
	}
}

// TestQueryResultsIterator: the range-over-func form delivers the same
// enumeration.
func TestQueryResultsIterator(t *testing.T) {
	rels, q := syntheticPair(t, 12, 15)
	oracle, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := proxrank.NewQueryInputs(q, inputsOf(rels), proxrank.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	rank := 0
	for c, err := range sess.Results(context.Background()) {
		if err != nil {
			t.Fatalf("rank %d: %v", rank+1, err)
		}
		if c.Score != oracle[rank].Score {
			t.Fatalf("rank %d: score %v, want %v", rank+1, c.Score, oracle[rank].Score)
		}
		rank++
		if rank == len(oracle) {
			break
		}
	}
	if rank != len(oracle) {
		t.Fatalf("iterator delivered %d results, want %d", rank, len(oracle))
	}
}

// TestQueryFromRequest: the api.Request surface reaches the same answer
// as the typed Options surface.
func TestQueryFromRequest(t *testing.T) {
	rels, q := syntheticPair(t, 13, 18)
	batch, err := proxrank.TopK(q, rels, proxrank.Options{K: 4, Algorithm: proxrank.CBPA})
	if err != nil {
		t.Fatal(err)
	}
	req := &api.Request{
		Query:     []float64(q),
		Relations: []string{rels[0].Name, rels[1].Name},
		K:         4,
		Algorithm: "HRJN*", // alias of cbpa: Normalize folds it
	}
	sess, err := proxrank.NewQuery(req, inputsOf(rels)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Combinations, batch.Combinations) {
		t.Fatalf("request path differs from options path:\n%v\n%v", res.Combinations, batch.Combinations)
	}

	// Input-count mismatch is rejected up front.
	if _, err := proxrank.NewQuery(req, inputsOf(rels)[0]); err == nil {
		t.Fatal("NewQuery accepted fewer inputs than named relations")
	}
}

// TestQueryDNFMatchesBatch: a capped session surfaces ErrDNF (the
// api.CodeDNF condition) and its certified prefix plus the uncertified
// drain reproduce the batch DNF result exactly.
func TestQueryDNFMatchesBatch(t *testing.T) {
	rels, q := syntheticPair(t, 14, 40)
	opts := proxrank.Options{K: 10, MaxSumDepths: 8}
	batch, err := proxrank.TopK(q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !batch.DNF {
		t.Fatalf("cap did not fire (sumDepths %d)", batch.Stats.SumDepths)
	}

	sess, err := proxrank.NewQueryInputs(q, inputsOf(rels), opts)
	if err != nil {
		t.Fatal(err)
	}
	certified, err := sess.Next(10)
	if !errors.Is(err, proxrank.ErrDNF) {
		t.Fatalf("Next under cap: err %v, want ErrDNF", err)
	}
	combined := append(certified, sess.DrainBest(10-len(certified))...)
	if !reflect.DeepEqual(combined, batch.Combinations) {
		t.Fatalf("DNF session differs from batch:\n%v\n%v", combined, batch.Combinations)
	}
	if sess.Stats().SumDepths != batch.Stats.SumDepths {
		t.Errorf("capped session paid %d accesses, batch paid %d", sess.Stats().SumDepths, batch.Stats.SumDepths)
	}
}

// countingSource wraps a Source and counts pulls, to prove incremental
// delivery: the first result must arrive before the inputs are drained.
type countingSource struct {
	proxrank.Source
	pulls *int
}

func (c countingSource) Next() (proxrank.Tuple, error) {
	*c.pulls += 1
	return c.Source.Next()
}

// TestQueryDeliversBeforeExhaustion: rank 1 is certified and returned
// while most of the input is still unread — the ranked-enumeration
// contract that the streaming endpoint builds on.
func TestQueryDeliversBeforeExhaustion(t *testing.T) {
	rels, q := syntheticPair(t, 15, 200)
	total := rels[0].Len() + rels[1].Len()
	pulls := 0
	var sources []proxrank.Source
	for _, rel := range rels {
		src, err := proxrank.OpenSource(rel, proxrank.DistanceAccess, q)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, countingSource{Source: src, pulls: &pulls})
	}
	sess, err := proxrank.NewQuerySources(q, sources, proxrank.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Next(1)
	if err != nil || len(first) != 1 {
		t.Fatalf("Next(1): %v (%d results)", err, len(first))
	}
	if pulls >= total {
		t.Fatalf("first result only after draining all input (%d/%d pulls)", pulls, total)
	}
	t.Logf("first result after %d of %d pulls", pulls, total)
}

// TestSourceKindMismatchSharded: regression for the streaming/batch
// validation parity — a sharded input whose merged stream delivers the
// wrong access order must be rejected by every entry point, not only
// the batch one.
func TestSourceKindMismatchSharded(t *testing.T) {
	rels, q := syntheticPair(t, 16, 30)
	sharded, err := proxrank.NewShardedRelation(rels[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	mkSources := func() []proxrank.Source {
		// A merged *score* stream for a query whose options announce
		// distance access.
		return []proxrank.Source{
			mustOpen(t, sharded, proxrank.ScoreAccess, nil),
			mustOpen(t, rels[1], proxrank.ScoreAccess, nil),
		}
	}
	opts := proxrank.Options{K: 3, Access: proxrank.DistanceAccess}
	if _, err := proxrank.NewQuerySources(q, mkSources(), opts); err == nil {
		t.Error("NewQuerySources accepted a sharded source with mismatched access kind")
	}
	if _, err := proxrank.TopKFromSources(q, mkSources(), opts); err == nil {
		t.Error("TopKFromSources accepted a sharded source with mismatched access kind")
	}
	// Sanity: the same sources are accepted when the options agree.
	if _, err := proxrank.NewQuerySources(q, mkSources(), proxrank.Options{K: 3, Access: proxrank.ScoreAccess}); err != nil {
		t.Errorf("consistent access kind rejected: %v", err)
	}
}

// TestSpillDirIsIgnored: Options.SpillDir and SpillMemBytes decide
// nothing. MaxBuffered alone picks the session: at 2 it is a bounded
// consumer that refuses its third result, at 0 an open one that
// enumerates the whole cross product in the oracle's order. Neither
// writes anything under SpillDir.
func TestSpillDirIsIgnored(t *testing.T) {
	rels, q := syntheticPair(t, 17, 50)
	dir := t.TempDir()

	bounded, err := proxrank.NewQueryInputs(q, inputsOf(rels), proxrank.Options{K: 1, MaxBuffered: 2, SpillDir: dir, SpillMemBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := bounded.Next(3); len(got) != 2 || !errors.Is(err, proxrank.ErrPastBound) {
		t.Fatalf("bounded Next(3): %d results, %v; want 2 and ErrPastBound", len(got), err)
	}
	bounded.Close()

	total := rels[0].Len() * rels[1].Len()
	oracle, err := proxrank.NaiveTopK(q, rels, proxrank.Options{K: total})
	if err != nil {
		t.Fatal(err)
	}
	open, err := proxrank.NewQueryInputs(q, inputsOf(rels), proxrank.Options{K: 1, SpillDir: dir, SpillMemBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	all, err := open.Next(total + 1)
	open.Close()
	if !errors.Is(err, proxrank.ErrStreamDone) || len(all) != total {
		t.Fatalf("open session: %d of %d results, %v", len(all), total, err)
	}
	for i, c := range all {
		if c.Score != oracle[i].Score || !reflect.DeepEqual(c.Tuples, oracle[i].Tuples) {
			t.Fatalf("rank %d: %v, oracle %v", i+1, c, oracle[i])
		}
	}
	if open.Stats().SpilledCombinations == 0 {
		t.Fatal("the open session never spilled: the check reaches no spill heap")
	}

	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("sessions left %d entries under SpillDir", len(left))
	}
}
