package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/vec"
)

// tieRelation builds a relation engineered to collide: scores drawn from
// a handful of discrete values and vectors snapped to a coarse integer
// grid (with occasional exact duplicates), so score ties and exact
// distance ties both occur and the canonical ordinal tie-break is
// actually exercised.
func tieRelation(t testing.TB, seed int64, size, dim int) *Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for c := range v {
			v[c] = float64(r.Intn(5))
		}
		if i > 0 && r.Intn(4) == 0 {
			v = tuples[r.Intn(i)].Vec // exact duplicate location
		}
		tuples[i] = Tuple{
			ID:    fmt.Sprintf("t%03d", i),
			Score: 0.2 + 0.2*float64(r.Intn(4)),
			Vec:   v,
		}
	}
	rel, err := New("tied", 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// sameSequence asserts two drains are byte-identical: same tuples, same
// scores, same order.
func sameSequence(t *testing.T, label string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: rank %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestPartitionCoversEveryTuple: shards are a true partition — disjoint,
// complete, and size-consistent — under both strategies.
func TestPartitionCoversEveryTuple(t *testing.T) {
	rel := tieRelation(t, 11, 97, 2)
	for _, strategy := range []PartitionStrategy{HashPartition, GridPartition} {
		s, err := Partition(rel, 5, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumShards() < 2 {
			t.Fatalf("%v: %d shards from 97 tuples, want several", strategy, s.NumShards())
		}
		seen := make(map[string]int)
		total := 0
		for i := 0; i < s.NumShards(); i++ {
			sh := s.ShardColumns(i)
			total += sh.Len()
			for j := 0; j < sh.Len(); j++ {
				seen[sh.Tuple(j).ID]++
			}
		}
		if total != rel.Len() {
			t.Fatalf("%v: shard sizes sum to %d, want %d (sizes %v)", strategy, total, rel.Len(), s.ShardSizes())
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("%v: tuple %s appears in %d shards", strategy, id, n)
			}
		}
	}
}

// TestPartitionDegenerateCounts: n = 1 serves the caller's relation as it
// stands — same pointer, storage order untouched — beside a score-ordered
// copy in the shard's columns, and n beyond the tuple count collapses to
// at most Len() non-empty shards.
func TestPartitionDegenerateCounts(t *testing.T) {
	rel := tieRelation(t, 13, 6, 2)
	before := rel.Tuples()
	one, err := Partition(rel, 1, GridPartition)
	if err != nil {
		t.Fatal(err)
	}
	if one.NumShards() != 1 || one.ShardRelation(0) != rel {
		t.Fatalf("single-shard partition did not reuse the relation")
	}
	cols := one.ShardColumns(0)
	for i, want := range before {
		if !reflect.DeepEqual(rel.At(i), want) {
			t.Fatalf("partitioning reordered the relation: At(%d) = %+v, was %+v", i, rel.At(i), want)
		}
		if i == 0 {
			continue
		}
		prev, cur := cols.Tuple(i-1), cols.Tuple(i)
		if cur.Score > prev.Score || (cur.Score == prev.Score && cols.Ordinal(i) <= cols.Ordinal(i-1)) {
			t.Fatalf("shard columns break the (score desc, ordinal asc) order at %d", i)
		}
	}
	many, err := Partition(rel, 50, GridPartition)
	if err != nil {
		t.Fatal(err)
	}
	if got := many.NumShards(); got > rel.Len() || got < 1 {
		t.Fatalf("50-way partition of 6 tuples yielded %d shards", got)
	}
	if _, err := Partition(rel, 0, HashPartition); err == nil {
		t.Fatal("Partition accepted shard count 0")
	}
	if _, err := Partition(nil, 2, HashPartition); err == nil {
		t.Fatal("Partition accepted a nil relation")
	}
}

// TestMergedSourceMatchesUnsharded is the ordering-invariant acceptance
// test at the relation layer: for both access kinds, both strategies,
// and all three distance backends, a merged stream over ≥4 shards — a
// Partition product's and its AssembleSharded twin's — must be
// byte-identical to the unsharded stream, ties included.
func TestMergedSourceMatchesUnsharded(t *testing.T) {
	rel := tieRelation(t, 17, 120, 2)
	q := vec.Of(1.3, 2.1)
	for _, strategy := range []PartitionStrategy{HashPartition, GridPartition} {
		ram, err := Partition(rel, 4, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if ram.NumShards() < 4 {
			t.Fatalf("%v: got %d shards, want 4", strategy, ram.NumShards())
		}
		for product, s := range map[string]*Sharded{"partition": ram, "twin": columnsTwin(t, ram)} {
			label := strategy.String() + "/" + product

			wantScore := drain(t, mustOpen(t, rel, ScoreAccess, nil))
			gotSrc, err := OpenSource(s, ScoreAccess, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotSrc.Kind() != ScoreAccess || gotSrc.Relation() != s.Relation() {
				t.Fatalf("%s: merged score source kind/relation wrong", label)
			}
			sameSequence(t, label+"/score", drain(t, gotSrc), wantScore)

			wantSorted, err := OpenSource(rel, DistanceAccess, q)
			if err != nil {
				t.Fatal(err)
			}
			gotSorted, err := mergedSorted(s, q)
			if err != nil {
				t.Fatal(err)
			}
			sameSequence(t, label+"/distance-sorted", drain(t, gotSorted), drain(t, wantSorted))

			wantRTree, err := OpenSource(oneShard(t, rel), DistanceAccess, q)
			if err != nil {
				t.Fatal(err)
			}
			mergedRTree, err := OpenSource(s, DistanceAccess, q)
			if err != nil {
				t.Fatal(err)
			}
			if mergedRTree.Kind() != DistanceAccess || mergedRTree.Relation() != s.Relation() {
				t.Fatalf("%s: merged distance source kind/relation wrong", label)
			}
			sameSequence(t, label+"/distance-rtree", drain(t, mergedRTree), drain(t, wantRTree))
		}
	}
}

// mergedSorted merges the oracle's full-sort distance streams of s's
// shards (sortedShard): the reference every merged distance stream is
// compared with.
func mergedSorted(s *Sharded, q vec.Vector) (Source, error) {
	sources := make([]Source, s.NumShards())
	for i := range sources {
		sources[i] = sortedShard(s, i, q)
	}
	return s.Merge(sources)
}

// TestCanonicalDistanceOrderAcrossBackends: with ordinal tie-batching,
// the R-tree traversal and the scan agree on one canonical sequence even
// in the presence of exact distance ties — over the plain relation, a
// one-shard Partition product and its AssembleSharded twin.
func TestCanonicalDistanceOrderAcrossBackends(t *testing.T) {
	rel := tieRelation(t, 23, 80, 2)
	q := vec.Of(2, 2)
	scan, err := OpenSource(rel, DistanceAccess, q)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, scan)
	ram := oneShard(t, rel)
	sameSequence(t, "one-shard OpenSource vs scan", drain(t, mustOpen(t, ram, DistanceAccess, q)), want)

	for product, s := range map[string]*Sharded{"partition": ram, "twin": columnsTwin(t, ram)} {
		for _, useRTree := range []bool{true, false} {
			src, err := s.ShardSource(0, DistanceAccess, q, nil, useRTree)
			if err != nil {
				t.Fatal(err)
			}
			sameSequence(t, fmt.Sprintf("%s shard, rtree=%v, vs scan", product, useRTree), drain(t, src), want)
		}
	}
}

// TestMergedSourceLazyPulls: a merged stream that is only partially
// consumed must not read past one head per shard beyond what it emitted,
// and reads each unbounded input exactly once before its first emission.
// An unbounded input whose first read fails leaves the merge retryable:
// the retry emits what a merge that never failed does.
func TestMergedSourceLazyPulls(t *testing.T) {
	rel := tieRelation(t, 29, 60, 2)
	s, err := Partition(rel, 4, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumShards()
	streams := func() []Source {
		sources := make([]Source, n)
		for i := range sources {
			src, err := s.ShardSource(i, ScoreAccess, nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			sources[i] = src
		}
		return sources
	}
	counted := make([]*CountingSource, n)
	sources := streams()
	for i, src := range sources {
		// CountingSource is not a shard stream, so count beneath the merge
		// by re-wrapping: pull through the counting layer via a tiny local
		// keyed adapter.
		cs := &CountingSource{Inner: src}
		counted[i] = cs
		sources[i] = countingKeyed{cs, src.(KeyedSource)}
	}
	merged, err := s.Merge(sources)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Next(); err != nil {
		t.Fatal(err)
	}
	for j, c := range counted {
		if c.Reads != 1 {
			t.Fatalf("input %d read %d times before the first emission, want 1", j, c.Reads)
		}
	}
	const prefix = 10
	for i := 1; i < prefix; i++ {
		if _, err := merged.Next(); err != nil {
			t.Fatal(err)
		}
	}
	reads := 0
	for _, c := range counted {
		reads += c.Reads
	}
	if max := prefix + n; reads > max {
		t.Fatalf("merged prefix of %d pulled %d underlying tuples, want at most %d", prefix, reads, max)
	}

	want, err := s.Merge(streams())
	if err != nil {
		t.Fatal(err)
	}
	sources = streams()
	sources[2] = &failOnce{KeyedSource: sources[2].(KeyedSource)}
	flaky, err := s.Merge(sources)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flaky.Next(); !errors.Is(err, errFailOnce) {
		t.Fatalf("first read past a failing input: %v, want %v", err, errFailOnce)
	}
	sameSequence(t, "merge retried past a failed first read", drain(t, flaky), drain(t, want))
}

// errFailOnce is failOnce's fault.
var errFailOnce = errors.New("injected first-read fault")

// failOnce fails its first read, then reads its source.
type failOnce struct {
	KeyedSource
	failed bool
}

func (f *failOnce) NextKeyed() (Tuple, float64, int, error) {
	if !f.failed {
		f.failed = true
		return Tuple{}, 0, 0, errFailOnce
	}
	return f.KeyedSource.NextKeyed()
}

// TestShardSetMergeReadsShardsDirectly: once a shard of a shard-set
// merge has been read, its head holds the shard's own stream, never the
// latentShard that opened it, so no read after the first passes through
// a wrapper.
func TestShardSetMergeReadsShardsDirectly(t *testing.T) {
	s, err := Partition(tieRelation(t, 37, 240, 2), 12, GridPartition)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []AccessKind{ScoreAccess, DistanceAccess} {
		src, err := OpenSource(s, kind, vec.Of(1.5, 2.5))
		if err != nil {
			t.Fatal(err)
		}
		m := src.(*MergedSource)
		for n := 0; ; n++ {
			if _, err := m.Next(); errors.Is(err, ErrExhausted) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			for _, h := range m.heads {
				if _, wrapped := h.src.(*latentShard); wrapped != h.latent {
					t.Fatalf("%v, row %d: a head (latent %v) reads through a %T", kind, n, h.latent, h.src)
				}
			}
		}
		if m.InputsRead() != s.NumShards() {
			t.Fatalf("%v: drained after reading %d of %d shards", kind, m.InputsRead(), s.NumShards())
		}
		m.Close()
	}
}

// countingKeyed threads NextKeyed through a CountingSource so merge-layer
// laziness is observable in tests.
type countingKeyed struct {
	*CountingSource
	keyed KeyedSource
}

func (c countingKeyed) NextKeyed() (Tuple, float64, int, error) {
	t, key, ord, err := c.keyed.NextKeyed()
	if err == nil {
		c.CountingSource.Reads++
	}
	return t, key, ord, err
}

// TestMergeRejectsForeignSources: sources that are not this package's
// shard streams, wrong counts, and mixed kinds are all refused.
func TestMergeRejectsForeignSources(t *testing.T) {
	rel := tieRelation(t, 31, 40, 2)
	s, err := Partition(rel, 3, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumShards()
	good := make([]Source, n)
	for i := 0; i < n; i++ {
		if good[i], err = s.ShardSource(i, ScoreAccess, nil, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Merge(good[:n-1]); err == nil {
		t.Fatal("Merge accepted a short source list")
	}
	foreign := append([]Source{}, good...)
	foreign[0] = &CountingSource{Inner: good[0]}
	if _, err := s.Merge(foreign); err == nil {
		t.Fatal("Merge accepted a non-shard source")
	}
	if n >= 2 {
		mixed := append([]Source{}, good...)
		if mixed[1], err = s.ShardSource(1, DistanceAccess, vec.Of(0, 0), nil, true); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Merge(mixed); err == nil {
			t.Fatal("Merge accepted mixed access kinds")
		}
	}
}

// TestParallelShardBuildsAndQueries is the -race test of the sharded
// path: many sharded relations built concurrently (each of which builds
// its own shard indexes in parallel), then concurrently queried while
// sharing the immutable shard indexes.
func TestParallelShardBuildsAndQueries(t *testing.T) {
	rel := tieRelation(t, 37, 150, 3)
	const builders = 6
	built := make([]*Sharded, builders)
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			s, err := Partition(rel, 2+b, PartitionStrategy(b%2))
			if err != nil {
				t.Error(err)
				return
			}
			built[b] = s
		}(b)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := drain(t, mustOpen(t, rel, ScoreAccess, nil))
	q := vec.Of(1, 1, 1)
	wantDistSeq := drain(t, mustOpen(t, oneShard(t, rel), DistanceAccess, q))
	for b, s := range built {
		wg.Add(2)
		go func(b int, s *Sharded) {
			defer wg.Done()
			src, err := OpenSource(s, ScoreAccess, nil)
			if err != nil {
				t.Error(err)
				return
			}
			sameSequence(t, fmt.Sprintf("builder %d score", b), drain(t, src), want)
		}(b, s)
		go func(b int, s *Sharded) {
			defer wg.Done()
			src, err := OpenSource(s, DistanceAccess, q)
			if err != nil {
				t.Error(err)
				return
			}
			sameSequence(t, fmt.Sprintf("builder %d distance", b), drain(t, src), wantDistSeq)
		}(b, s)
	}
	wg.Wait()
}

// TestPartitionStrategyParse round-trips the strategy names.
func TestPartitionStrategyParse(t *testing.T) {
	for _, s := range []PartitionStrategy{HashPartition, GridPartition} {
		got, err := ParsePartitionStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParsePartitionStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if got, err := ParsePartitionStrategy(""); err != nil || got != HashPartition {
		t.Fatalf("empty strategy = %v, %v; want hash", got, err)
	}
	if _, err := ParsePartitionStrategy("mod"); err == nil {
		t.Fatal("ParsePartitionStrategy accepted an unknown name")
	}
}
