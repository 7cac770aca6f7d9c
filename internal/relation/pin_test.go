package relation_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
	"tied/grid/1": {"bd34f1af547fd1e7ac62b93c74f063372d807111cbcdbb134414872400696116", "8e90dd23e31d6dce8977c12e5f9dd76b5449129361e7eb1cc3cd4f310e707dcb", "2a0500755e82a4309e2260041100ff1f0cc5197ccf702435e8d16629d44e83bf", "d38f51cfd5f7bb0f0fe4dbf0863eb06dfa3ff5afe0164d5fc5c19a480e54712e"},
	"tied/grid/5": {"2dc14c80c34a0e8dac358d7762c89648a9dbeca4d7c095ff35780384d5d2e1a8", "d8e43137b4c7a9d3430ce07836b5241afc8ab8816ec970286eeb9da0d5f32836", "22fae3e505fd09eb5593c9a4285bcd8aaf1ee91d54e1cb076886bcfdef9c5721", "34b92eea26e0a3f0b3148776d1d28d9f8c7601007788c1246269031fe3249949"},
	"dim8/grid/1": {"a7427f1b94985960b4f67638bf4390f8786d2fb08726a929d3400e0572ecd70d", "4a26fa351fbd7aa457f6f764d9329f07b63572350d7e71a2007f15a452d89da6", "9248f65a778581a94f72bb84e9436089064ce9676509438bc233c2942f360888", "3d09967c9fdd2c5f48aa9d54b41082ced3795898d2f42315c395d203ba43742e"},
	"dim8/grid/5": {"136aa91e7a8c2e30c49b5ee4e41e521607d3d6098ac2121236b680e3b2f5d401", "4231d02967b19e29288848183b461555c5c73f15ef4168295461f93f19d3ee6a", "a2e089e27c7de90156775630e8b23b9dbe7a21524f40ef55159476db9e98e9f4", "8e83303fb09124eee9f923c839d76bb053d00eea8a480823e1a1d1c4e4ac425a"},
}

// transcribe writes every stream s serves — score access, then per query
// distance access with useRTree true and false (the R-tree and the scan
// below dimension 8, the scan twice from it; the labels keep the names
// "rtree" and "sorted" the digests were recorded under) — as one line per
// pulled tuple: ID, key bits and parent ordinal (zeroes where a k-way
// merge does not report them). A score row's key is the source's merge
// key; a distance row's is the tuple's squared distance to the query,
// recomputed here, so the line says what order held, and a keyed
// distance source must have reported those very bits. Each shard's
// stream goes into shardH, the merged one into mergedH.
func transcribe(t *testing.T, shardH, mergedH hash.Hash, s *relation.Sharded, queries []vec.Vector) {
	t.Helper()
	drain := func(h hash.Hash, label string, q vec.Vector, src relation.Source, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(h, "%s\n", label)
		keyed, _ := src.(relation.KeyedSource)
		if _, merge := src.(*relation.MergedSource); merge {
			keyed = nil // a merge's rows are pinned without its key and ordinal
		}
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
			if q != nil {
				d2 := tu.Vec.Dist2(q)
				if keyed != nil && math.Float64bits(key) != math.Float64bits(d2) {
					t.Fatalf("%s: %s keyed %v, its squared distance is %v", label, tu.ID, key, d2)
				}
				key = d2
			}
			fmt.Fprintf(h, "%s %016x %d\n", tu.ID, math.Float64bits(key), ord)
		}
	}
	stream := func(label string, kind relation.AccessKind, q vec.Vector, useRTree bool) {
		t.Helper()
		for i := 0; i < s.NumShards(); i++ {
			src, err := s.ShardSource(i, kind, q, nil, useRTree)
			drain(shardH, fmt.Sprintf("%s shard %d", label, i), q, src, err)
		}
		// OpenSource opens each shard with useRTree true; the merge of
		// useRTree-false streams stays pinned through Merge.
		if kind == relation.DistanceAccess && !useRTree {
			shards := make([]relation.Source, s.NumShards())
			for i := range shards {
				var err error
				if shards[i], err = s.ShardSource(i, kind, q, nil, false); err != nil {
					t.Fatalf("%s shard %d: %v", label, i, err)
				}
			}
			src, err := s.Merge(shards)
			drain(mergedH, label+" merged", q, src, err)
			return
		}
		src, err := relation.OpenSource(s, kind, q)
		drain(mergedH, label+" merged", q, src, err)
	}
	stream("score", relation.ScoreAccess, nil, false)
	for i, q := range queries {
		stream(fmt.Sprintf("q%d rtree", i), relation.DistanceAccess, q, true)
		stream(fmt.Sprintf("q%d sorted", i), relation.DistanceAccess, q, false)
	}
}

// boundsDigest hashes the float bits of every shard's rectangle and max
// score, and its tuple count.
func boundsDigest(s *relation.Sharded) string {
	h := sha256.New()
	for i := 0; i < s.NumShards(); i++ {
		b := s.ShardBounds(i)
		for _, xs := range [][]float64{b.Min, b.Max, {b.MaxScore}} {
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
// fixtures in {1, 5} grid shards against pinned: the partitioned
// relation's two stream transcripts, the same two over its relfile
// mapped back, the float bits of every ShardBounds field — the same from
// the partitioner and from the file, which stores no bounds and derives
// them — and the sha256 of the relfile itself, which the mapped
// relation re-encodes to. Each fixture's 5 overlapping shards
// (HashSharded), whose heads interleave where grid boxes' do not, must
// merge to the 5 grid shards' pinned merged transcript.
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
		for _, shards := range []int{1, 5} {
			name := fmt.Sprintf("%s/grid/%d", fx.rel.Name, shards)
			t.Run(name, func(t *testing.T) {
				s, err := relation.Partition(fx.rel, shards)
				if err != nil {
					t.Fatal(err)
				}
				if s.NumShards() != shards {
					t.Fatalf("%d shards, want %d", s.NumShards(), shards)
				}
				if got := pinOf(t, s, fx.queries); got != pinned[name] {
					t.Errorf("pin moved; got\n\t%q: {%q, %q, %q, %q},\nwant\n\t%+v", name, got.shards, got.merged, got.bounds, got.relfile, pinned[name])
				}
			})
		}
		t.Run(fx.rel.Name+"/overlap/5", func(t *testing.T) {
			s := relation.HashSharded(t, fx.rel, 5)
			if s.NumShards() != 5 {
				t.Fatalf("%d shards, want 5", s.NumShards())
			}
			if got, want := pinOf(t, s, fx.queries).merged, pinned[fx.rel.Name+"/grid/5"].merged; got != want {
				t.Errorf("overlapping shards merge to %s, grid shards pinned at %s", got, want)
			}
		})
	}
}

// pinOf digests s as pinned records it, after checking that its relfile
// mapped back advertises the same bounds, re-encodes to the same bytes and
// serves the same transcripts.
func pinOf(t *testing.T, s *relation.Sharded, queries []vec.Vector) pin {
	t.Helper()
	var got pin
	shardH, mergedH := sha256.New(), sha256.New()
	transcribe(t, shardH, mergedH, s, queries)
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

	f, err := relfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := f.Load(s.Relation().Name)
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
	transcribe(t, shardH, mergedH, loaded, queries)
	if mapped := fmt.Sprintf("%x", shardH.Sum(nil)); mapped != got.shards {
		t.Errorf("mapped relfile shard streams %s, heap %s", mapped, got.shards)
	}
	if mapped := fmt.Sprintf("%x", mergedH.Sum(nil)); mapped != got.merged {
		t.Errorf("mapped relfile merged streams %s, heap %s", mapped, got.merged)
	}
	return got
}

// TestRelfileOfLayoutZeroServesItsShards: a relfile whose header carries
// layout word 0, the word of a file written when shards could be cut by a
// hash of tuple IDs, opens, and its overlapping shards stream what the
// unsharded relation does under both access kinds. Word 2 names no
// layout and is refused as corrupt.
func TestRelfileOfLayoutZeroServesItsShards(t *testing.T) {
	rel := relation.TieRelation(t, 41, 150, 2)
	path := filepath.Join(t.TempDir(), "hash.prox")
	if err := relfile.Write(path, relation.HashSharded(t, rel, 5)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if word := binary.LittleEndian.Uint32(raw[12:16]); word != 1 {
		t.Fatalf("Write emitted layout word %d, want 1", word)
	}
	withLayout := func(word uint32) string {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(b[12:16], word)
		binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[0:60], crc32.MakeTable(crc32.Castagnoli)))
		p := filepath.Join(t.TempDir(), fmt.Sprintf("layout%d.prox", word))
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := relfile.Open(withLayout(2)); !errors.Is(err, relfile.ErrCorrupt) {
		t.Fatalf("layout word 2 opened with error %v, want ErrCorrupt", err)
	}
	f, err := relfile.Open(withLayout(0))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old, err := f.Load(rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if old.NumShards() != 5 {
		t.Fatalf("%d shards, want 5", old.NumShards())
	}
	drain := func(in relation.Input, kind relation.AccessKind, q vec.Vector) []relation.Tuple {
		t.Helper()
		src, err := relation.OpenSource(in, kind, q)
		if err != nil {
			t.Fatal(err)
		}
		var out []relation.Tuple
		for {
			tu, err := src.Next()
			if errors.Is(err, relation.ErrExhausted) {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tu)
		}
	}
	check := func(kind relation.AccessKind, q vec.Vector) {
		t.Helper()
		got, want := drain(old, kind, q), drain(rel, kind, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %v: the layout-0 file streams %d tuples unlike the unsharded relation's %d", kind, q, len(got), len(want))
		}
	}
	check(relation.ScoreAccess, nil)
	for _, q := range []vec.Vector{vec.Of(1.3, 2.1), vec.Of(2, 2), vec.Of(-40, 40)} {
		check(relation.DistanceAccess, q)
	}
}
