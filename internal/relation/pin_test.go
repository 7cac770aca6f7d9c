package relation_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/relfile"
	"repro/internal/vec"
)

// pin is what one partitioned fixture looked like at the commit that
// recorded it: a digest of every per-shard stream it serves, of every
// merged stream, of the bounds it advertises, and of the relfile it
// encodes to. Shard and merged streams are digested apart because a
// change of partitioner moves the former and must not move the latter.
type pin struct{ shards, merged, bounds, relfile string }

// pinned is the independent witness for the identity suites. Those compare
// access paths and storage tiers with each other, so a change that moves
// both sides of a comparison passes them; these digests were recorded once
// and only move when emitted sequences, advertised bound bits or relfile
// bytes do. Regenerate an entry from the failure message, and only for a
// change that means to alter what it pins.
var pinned = map[string]pin{
	"tied/hash/1": {"089a97fef05a5664e457b11358fd80aaf20a26cfe1e3e639e3116867331a7fd7", "f81686c6af09ff82f1a1d24cb328cc747afc68dd0ffb33052c71afe5ed92bff9", "579c08f1a96a24fdeb680de5a588b61b6f604854801d68a631eb646d1ca0c9aa", "a33607138ee89c7e7530a6e0e77047847cad6e872b0ee05d134cec2658184ff6"},
	"tied/hash/5": {"6fa46b3fb22748804b132cc7043cdda217dd2691b2f9b7f03a76527e21efa621", "160d9f12e5bf7394b1290338800c9ac0ca5070b12852e3f2096f7b880018c89a", "87ed14acb7a8a17e2fb277a434257531e74f11b01077eb96f8c9f519c4fdd062", "4535e8ae86ec56e4c24d2d129bbef10cced2bd64733a13ec90ef21f69579804c"},
	"tied/grid/1": {"089a97fef05a5664e457b11358fd80aaf20a26cfe1e3e639e3116867331a7fd7", "f81686c6af09ff82f1a1d24cb328cc747afc68dd0ffb33052c71afe5ed92bff9", "579c08f1a96a24fdeb680de5a588b61b6f604854801d68a631eb646d1ca0c9aa", "c4effafc4d8093368accf405d99e757ddb132c6fb76636a5087385bef32b5b10"},
	"tied/grid/5": {"543fc49e05abc5888b87805b3c8a052190908f6e491308498e4853b13b37fcff", "160d9f12e5bf7394b1290338800c9ac0ca5070b12852e3f2096f7b880018c89a", "33fd4524175783679a205fe2661977b2af4adcf9e7353a96190994d318dad6b8", "0091cf3de65819453348f49089ad9cb3cb0e9cf735d211bea0a603320063468d"},
	"dim8/hash/1": {"8c7bec1d0d1ef343669ddd7f1203cd6af6efa2edc99948a0268cb6d78328d675", "ff33f6428e588820f8575a4694b381d352dde0889ca84a42e49a1d052caceff5", "5e4c09a29868e2bd8e3537090c3c460f7468563e3892366eaea057cc7e834624", "f854f023c863b93ea683767fc13b0d0eefcbbee003af6aac4fd1e7d8f870e115"},
	"dim8/hash/5": {"f620fbd682f1ea2f1b145d8cc662c8db7160203633f9e2746b8de2dfde6f2865", "b28cb83a76793e269e0e4ad783728ffb6c04663e130a7eab95aa5345c7e2bb37", "14237cd990803eba67a9652eec7bb89b96a39c6f08843db8350d0372a318c14c", "b4ff345b64c208ef79ab1c4c20e5b5643c7475e0581b4992d68039f4574d0242"},
	"dim8/grid/1": {"8c7bec1d0d1ef343669ddd7f1203cd6af6efa2edc99948a0268cb6d78328d675", "ff33f6428e588820f8575a4694b381d352dde0889ca84a42e49a1d052caceff5", "5e4c09a29868e2bd8e3537090c3c460f7468563e3892366eaea057cc7e834624", "54381671a69f79dc3b6120a58323b4fc5a49815c70395f41a95f08423f663320"},
	"dim8/grid/5": {"b6520d7e360d2211230df2f1110db007676b78355040f92dc8fea6ef6dc8d62b", "b28cb83a76793e269e0e4ad783728ffb6c04663e130a7eab95aa5345c7e2bb37", "35a51167050f4ae06291c5dfb22e84bd28e20c9f62a0561575d27878ad9f90e7", "33b344f89a1887b02352189bc9cb1fdbd6ebf8fd952632761f9b891a6024a4c4"},
}

// transcribe writes every stream s serves — score access, then per query
// R-tree and sorted distance access — as one line per
// pulled tuple: ID, merge-key bits and parent ordinal (zeroes where a
// k-way merge does not report them). Each shard's stream goes into
// shardH, the merged one into mergedH.
func transcribe(t *testing.T, shardH, mergedH hash.Hash, s *relation.Sharded, queries []vec.Vector) {
	t.Helper()
	drain := func(h hash.Hash, label string, src relation.Source, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(h, "%s\n", label)
		keyed, _ := src.(relation.KeyedSource)
		for {
			var (
				tu  relation.Tuple
				key float64
				ord int
			)
			if keyed != nil {
				tu, key, ord, err = keyed.NextKeyed()
			} else {
				tu, err = src.Next()
			}
			if errors.Is(err, relation.ErrExhausted) {
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fmt.Fprintf(h, "%s %016x %d\n", tu.ID, math.Float64bits(key), ord)
		}
	}
	stream := func(label string, kind relation.AccessKind, q vec.Vector, useRTree bool) {
		t.Helper()
		for i := 0; i < s.NumShards(); i++ {
			src, err := s.ShardSource(i, kind, q, nil, useRTree)
			drain(shardH, fmt.Sprintf("%s shard %d", label, i), src, err)
		}
		// OpenSource picks the R-tree for a sharded input; the sorted merge
		// it no longer reaches stays pinned through the same Merge over
		// explicitly sorted shard streams.
		if kind == relation.DistanceAccess && !useRTree {
			shards := make([]relation.Source, s.NumShards())
			for i := range shards {
				var err error
				if shards[i], err = s.ShardSource(i, kind, q, nil, false); err != nil {
					t.Fatalf("%s shard %d: %v", label, i, err)
				}
			}
			src, err := s.Merge(shards)
			drain(mergedH, label+" merged", src, err)
			return
		}
		src, err := relation.OpenSource(s, kind, q)
		drain(mergedH, label+" merged", src, err)
	}
	stream("score", relation.ScoreAccess, nil, false)
	for i, q := range queries {
		stream(fmt.Sprintf("q%d rtree", i), relation.DistanceAccess, q, true)
		stream(fmt.Sprintf("q%d sorted", i), relation.DistanceAccess, q, false)
	}
}

// boundsDigest hashes the float bits of every field of every shard's
// bounds, rectangle included.
func boundsDigest(s *relation.Sharded) string {
	h := sha256.New()
	for i := 0; i < s.NumShards(); i++ {
		b := s.ShardBounds(i)
		for _, xs := range [][]float64{b.Centroid, b.Min, b.Max, {b.Radius, b.MaxScore}} {
			for _, x := range xs {
				fmt.Fprintf(h, "%016x ", math.Float64bits(x))
			}
			fmt.Fprint(h, "| ")
		}
		fmt.Fprintf(h, "%d\n", b.Tuples)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPinnedStreamsBoundsAndRelfileBytes checks tie-heavy dim-2 and dim-8
// fixtures × {hash, grid} × {1, 5 shards} against pinned: the partitioned
// relation's two stream transcripts, the same two over its relfile
// mapped back, the float bits of every ShardBounds field — the same from
// the partitioner and from the file, which stores no rectangle and
// derives it — and the sha256 of the relfile itself, which the mapped
// relation re-encodes to.
func TestPinnedStreamsBoundsAndRelfileBytes(t *testing.T) {
	tied := relation.TieRelation(t, 41, 150, 2)
	dim8 := relation.Dim8Relation(t, 43, 400)
	fixtures := []struct {
		rel     *relation.Relation
		queries []vec.Vector
	}{
		{tied, []vec.Vector{vec.Of(1.3, 2.1), vec.Of(2, 2)}},
		{dim8, []vec.Vector{vec.New(8), dim8.At(17).Vec}},
	}
	for _, fx := range fixtures {
		for _, strategy := range []relation.PartitionStrategy{relation.HashPartition, relation.GridPartition} {
			for _, shards := range []int{1, 5} {
				name := fmt.Sprintf("%s/%v/%d", fx.rel.Name, strategy, shards)
				t.Run(name, func(t *testing.T) {
					s, err := relation.Partition(fx.rel, shards, strategy)
					if err != nil {
						t.Fatal(err)
					}
					if s.NumShards() != shards {
						t.Fatalf("%d shards, want %d", s.NumShards(), shards)
					}
					var got pin

					shardH, mergedH := sha256.New(), sha256.New()
					transcribe(t, shardH, mergedH, s, fx.queries)
					got.shards = fmt.Sprintf("%x", shardH.Sum(nil))
					got.merged = fmt.Sprintf("%x", mergedH.Sum(nil))

					got.bounds = boundsDigest(s)

					path := filepath.Join(t.TempDir(), "pin.prox")
					if err := relfile.Write(path, s); err != nil {
						t.Fatal(err)
					}
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					got.relfile = fmt.Sprintf("%x", sha256.Sum256(raw))

					if got != pinned[name] {
						t.Errorf("pin moved; got\n\t%q: {%q, %q, %q, %q},\nwant\n\t%+v", name, got.shards, got.merged, got.bounds, got.relfile, pinned[name])
					}

					f, err := relfile.Open(path)
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					loaded, err := f.Load(fx.rel.Name)
					if err != nil {
						t.Fatal(err)
					}
					if mapped := boundsDigest(loaded); mapped != got.bounds {
						t.Errorf("mapped relfile bounds %s, heap %s", mapped, got.bounds)
					}
					again := filepath.Join(t.TempDir(), "again.prox")
					if err := relfile.Write(again, loaded); err != nil {
						t.Fatal(err)
					}
					if rewritten, err := os.ReadFile(again); err != nil || !bytes.Equal(rewritten, raw) {
						t.Errorf("re-encoding the mapped relfile changed its bytes (err %v)", err)
					}
					shardH, mergedH = sha256.New(), sha256.New()
					transcribe(t, shardH, mergedH, loaded, fx.queries)
					if mapped := fmt.Sprintf("%x", shardH.Sum(nil)); mapped != got.shards {
						t.Errorf("mapped relfile shard streams %s, heap %s", mapped, got.shards)
					}
					if mapped := fmt.Sprintf("%x", mergedH.Sum(nil)); mapped != got.merged {
						t.Errorf("mapped relfile merged streams %s, heap %s", mapped, got.merged)
					}
				})
			}
		}
	}
}
