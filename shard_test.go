package proxrank_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	proxrank "repro"
)

// shardTestRelation builds a deterministic relation with engineered
// score and distance ties, so the byte-identical guarantee is tested
// where it is hardest.
func shardTestRelation(t testing.TB, name string, seed int64, size, dim int) *proxrank.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]proxrank.Tuple, size)
	for i := range tuples {
		v := make([]float64, dim)
		for c := range v {
			v[c] = float64(r.Intn(6))
		}
		tuples[i] = proxrank.Tuple{
			ID:    fmt.Sprintf("%s-%03d", name, i),
			Score: 0.25 + 0.25*float64(r.Intn(3)),
			Vec:   v,
		}
	}
	rel, err := proxrank.NewRelation(name, 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestTopKShardedMatchesUnsharded is the facade-layer acceptance test:
// relations partitioned into ≥4 shards must return byte-identical top-k
// results (same tuples, same scores, same order) as the unsharded
// relations, for both access kinds and both strategies.
func TestTopKShardedMatchesUnsharded(t *testing.T) {
	relA := shardTestRelation(t, "A", 101, 90, 2)
	relB := shardTestRelation(t, "B", 202, 110, 2)
	query := proxrank.Vector{2.2, 1.4}

	for _, strategy := range []proxrank.PartitionStrategy{proxrank.HashPartition, proxrank.GridPartition} {
		shardedA, err := proxrank.NewShardedRelation(relA, 4, strategy)
		if err != nil {
			t.Fatal(err)
		}
		shardedB, err := proxrank.NewShardedRelation(relB, 5, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if shardedA.NumShards() < 4 {
			t.Fatalf("%v: relation A has %d shards, want 4", strategy, shardedA.NumShards())
		}
		for _, access := range []proxrank.AccessKind{proxrank.DistanceAccess, proxrank.ScoreAccess} {
			for _, useRTree := range []bool{false, true} {
				if access == proxrank.ScoreAccess && useRTree {
					continue
				}
				opts := proxrank.Options{K: 12, Access: access, UseRTree: useRTree}
				want, err := proxrank.TopK(query, []*proxrank.Relation{relA, relB}, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := proxrank.TopKInputs(query, []proxrank.Input{shardedA, shardedB}, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/%v/rtree=%v", strategy, access, useRTree)
				if !reflect.DeepEqual(got.Combinations, want.Combinations) {
					t.Fatalf("%s: sharded combinations diverge from unsharded\n got: %+v\nwant: %+v",
						label, got.Combinations, want.Combinations)
				}
				if got.Stats.SumDepths != want.Stats.SumDepths {
					t.Fatalf("%s: sharded sumDepths %d, unsharded %d (streams are not identical)",
						label, got.Stats.SumDepths, want.Stats.SumDepths)
				}
			}
		}
	}
}

// TestTopKInputsMixes plain and sharded inputs in one query.
func TestTopKInputsMixes(t *testing.T) {
	relA := shardTestRelation(t, "A", 7, 40, 2)
	relB := shardTestRelation(t, "B", 8, 50, 2)
	shardedB, err := proxrank.NewShardedRelation(relB, 4, proxrank.GridPartition)
	if err != nil {
		t.Fatal(err)
	}
	query := proxrank.Vector{1, 1}
	opts := proxrank.Options{K: 5}
	want := proxrank.MustTopK(query, []*proxrank.Relation{relA, relB}, opts)
	got, err := proxrank.TopKInputs(query, []proxrank.Input{relA, shardedB}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Combinations, want.Combinations) {
		t.Fatalf("mixed plain+sharded inputs diverge from unsharded")
	}
}

// benchShardedCity measures end-to-end TopK latency over the bundled SF
// city relations at a given shard count (1 = unsharded); EXPERIMENTS.md
// records the comparison.
func benchShardedCity(b *testing.B, shards int, strategy proxrank.PartitionStrategy) {
	rels, query, _, err := proxrank.CityDataset("SF")
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		s, err := proxrank.NewShardedRelation(rel, shards, strategy)
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = s
	}
	opts := proxrank.Options{K: 10, UseRTree: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.TopKInputs(query, inputs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCityTopKUnsharded(b *testing.B)    { benchShardedCity(b, 1, proxrank.HashPartition) }
func BenchmarkCityTopKSharded4Hash(b *testing.B) { benchShardedCity(b, 4, proxrank.HashPartition) }
func BenchmarkCityTopKSharded4Grid(b *testing.B) { benchShardedCity(b, 4, proxrank.GridPartition) }
func BenchmarkCityTopKSharded8Grid(b *testing.B) { benchShardedCity(b, 8, proxrank.GridPartition) }

// benchShardedBuild measures registration-time index construction, where
// per-shard parallelism is the win.
func benchShardedBuild(b *testing.B, shards int) {
	rel := shardTestRelation(b, "big", 1, 200000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.NewShardedRelation(rel, shards, proxrank.GridPartition); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedBuild1(b *testing.B) { benchShardedBuild(b, 1) }
func BenchmarkShardedBuild8(b *testing.B) { benchShardedBuild(b, 8) }

// TestStreamInputsSharded: a session enumerated one result at a time
// over sharded inputs emits the same ranked sequence as over plain
// relations.
func TestStreamInputsSharded(t *testing.T) {
	relA := shardTestRelation(t, "A", 11, 35, 2)
	relB := shardTestRelation(t, "B", 12, 45, 2)
	shardedA, err := proxrank.NewShardedRelation(relA, 4, proxrank.HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	shardedB, err := proxrank.NewShardedRelation(relB, 4, proxrank.GridPartition)
	if err != nil {
		t.Fatal(err)
	}
	query := proxrank.Vector{3, 2}
	opts := proxrank.Options{K: 1, Access: proxrank.ScoreAccess}
	plain, err := proxrank.NewQueryInputs(query, []proxrank.Input{relA, relB}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := proxrank.NewQueryInputs(query, []proxrank.Input{shardedA, shardedB}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		want, werr := nextOne(plain)
		got, gerr := nextOne(sharded)
		if errors.Is(werr, proxrank.ErrStreamDone) || errors.Is(gerr, proxrank.ErrStreamDone) {
			if !errors.Is(werr, proxrank.ErrStreamDone) || !errors.Is(gerr, proxrank.ErrStreamDone) {
				t.Fatalf("rank %d: exhaustion mismatch (plain %v, sharded %v)", i, werr, gerr)
			}
			break
		}
		if werr != nil || gerr != nil {
			t.Fatalf("rank %d: errors plain=%v sharded=%v", i, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: sharded stream emitted %+v, plain emitted %+v", i, got, want)
		}
	}
}
