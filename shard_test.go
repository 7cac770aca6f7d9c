package proxrank_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
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

// inputKind is one way the library reads a set of relations. The access
// path follows from the input, never from an option, so every kind must
// return the same bytes for the same query.
type inputKind struct {
	name string
	topK func(q proxrank.Vector, opts proxrank.Options) (proxrank.Result, error)
}

// inputKinds builds every kind of input over rels, the plain relations
// (scanned per query) first: their grid partitions (merged per-shard
// R-trees), the relfile twin of each partition (mapped columns, R-trees
// built on first use), and one shared one-shard partition per relation
// whose streams OpenSource opens for TopKFromSources.
func inputKinds(t testing.TB, rels []*proxrank.Relation, shards int) []inputKind {
	t.Helper()
	overInputs := func(name string, inputs []proxrank.Input) inputKind {
		return inputKind{name, func(q proxrank.Vector, opts proxrank.Options) (proxrank.Result, error) {
			return proxrank.TopKInputs(q, inputs, opts)
		}}
	}
	kinds := []inputKind{overInputs("plain", inputsOf(rels))}
	dir := t.TempDir()
	sharded := make([]proxrank.Input, len(rels))
	mapped := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		s, err := proxrank.NewShardedRelation(rel, shards)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumShards() != shards {
			t.Fatalf("relation %s has %d shards, want %d", rel.Name, s.NumShards(), shards)
		}
		path := filepath.Join(dir, fmt.Sprintf("grid-%d%s", i, proxrank.RelFileExtension))
		if err := proxrank.SaveRelFile(path, s); err != nil {
			t.Fatal(err)
		}
		m, err := proxrank.LoadRelFile(path, rel.Name)
		if err != nil {
			t.Fatal(err)
		}
		sharded[i], mapped[i] = s, m
	}
	kinds = append(kinds, overInputs("grid", sharded), overInputs("grid-relfile", mapped))
	indexes := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		ix, err := proxrank.NewShardedRelation(rel, 1)
		if err != nil {
			t.Fatal(err)
		}
		indexes[i] = ix
	}
	return append(kinds, inputKind{
		name: "one-shard-sources",
		topK: func(q proxrank.Vector, opts proxrank.Options) (proxrank.Result, error) {
			sources := make([]proxrank.Source, len(indexes))
			for i, ix := range indexes {
				src, err := proxrank.OpenSource(ix, opts.Access, q)
				if err != nil {
					return proxrank.Result{}, err
				}
				sources[i] = src
			}
			return proxrank.TopKFromSources(q, sources, opts)
		},
	})
}

// TestTopKShardedMatchesUnsharded is the facade-layer acceptance test:
// every kind of input — relations partitioned into 4 grid shards, their
// relfile twins, shared one-shard partitions read through OpenSource —
// must return byte-identical top-k results (same tuples, same scores, same order) and
// read exactly as deep as the plain relations, for both access kinds. The
// plain relations sort and the rest traverse R-trees, so this is also the
// sorted-versus-R-tree identity.
func TestTopKShardedMatchesUnsharded(t *testing.T) {
	relA := shardTestRelation(t, "A", 101, 90, 2)
	relB := shardTestRelation(t, "B", 202, 110, 2)
	query := proxrank.Vector{2.2, 1.4}
	kinds := inputKinds(t, []*proxrank.Relation{relA, relB}, 4)

	for _, access := range []proxrank.AccessKind{proxrank.DistanceAccess, proxrank.ScoreAccess} {
		opts := proxrank.Options{K: 12, Access: access}
		want, err := kinds[0].topK(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds[1:] {
			got, err := kind.topK(query, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/%v", kind.name, access)
			if !reflect.DeepEqual(got.Combinations, want.Combinations) {
				t.Fatalf("%s: combinations diverge from the plain relations\n got: %+v\nwant: %+v",
					label, got.Combinations, want.Combinations)
			}
			if got.Stats.SumDepths != want.Stats.SumDepths {
				t.Fatalf("%s: sumDepths %d, plain relations %d (streams are not identical)",
					label, got.Stats.SumDepths, want.Stats.SumDepths)
			}
		}
	}
}

// TestTopKInputsMixes plain and sharded inputs in one query.
func TestTopKInputsMixes(t *testing.T) {
	relA := shardTestRelation(t, "A", 7, 40, 2)
	relB := shardTestRelation(t, "B", 8, 50, 2)
	shardedB, err := proxrank.NewShardedRelation(relB, 4)
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
func benchShardedCity(b *testing.B, shards int) {
	rels, query, _, err := proxrank.CityDataset("SF")
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		s, err := proxrank.NewShardedRelation(rel, shards)
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = s
	}
	opts := proxrank.Options{K: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.TopKInputs(query, inputs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCityTopKUnsharded(b *testing.B)    { benchShardedCity(b, 1) }
func BenchmarkCityTopKSharded4Grid(b *testing.B) { benchShardedCity(b, 4) }
func BenchmarkCityTopKSharded8Grid(b *testing.B) { benchShardedCity(b, 8) }

// benchShardedBuild measures registration-time index construction, where
// per-shard parallelism is the win.
func benchShardedBuild(b *testing.B, shards int) {
	rel := shardTestRelation(b, "big", 1, 200000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxrank.NewShardedRelation(rel, shards); err != nil {
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
	shardedA, err := proxrank.NewShardedRelation(relA, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardedB, err := proxrank.NewShardedRelation(relB, 4)
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
