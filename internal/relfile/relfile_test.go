package relfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/vec"
)

// testRelation builds a deterministic random relation with IDs of mixed
// length (including empty) and sparse attributes.
func testRelation(t testing.TB, seed int64, n, dim int) *relation.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		id := fmt.Sprintf("tuple-%d", i)
		if i%7 == 0 {
			id = ""
		}
		var attrs map[string]string
		if i%3 == 0 {
			attrs = map[string]string{"color": "red", "i": fmt.Sprint(i)}
		}
		// A few duplicate scores exercise the ordinal tiebreak.
		score := 0.05 + 0.95*float64(1+r.Intn(20))/20
		tuples[i] = relation.Tuple{ID: id, Score: score, Vec: v, Attrs: attrs}
	}
	rel, err := relation.New("t", 1, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// writeTemp partitions rel, writes it as a relfile, and returns the
// path plus the in-memory Sharded it encoded.
func writeTemp(t *testing.T, rel *relation.Relation, shards int) (string, *relation.Sharded) {
	t.Helper()
	s, err := relation.Partition(rel, shards)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rel.prox")
	if err := Write(path, s); err != nil {
		t.Fatal(err)
	}
	return path, s
}

// TestRoundTrip writes grid shards, as Partition cuts them, and shards
// cut by a hash of tuple IDs (hashSharded), whose rectangles overlap, and
// maps each back: the layouts a relfile of layout word 1 and 0 holds.
func TestRoundTrip(t *testing.T) {
	for i, layout := range []struct {
		name string
		cut  func(t *testing.T, rel *relation.Relation, n int) *relation.Sharded
	}{{"hash", hashSharded}, {"grid", partition}} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-%d", layout.name, shards), func(t *testing.T) {
				rel := testRelation(t, int64(shards)*100+int64(i), 83, 3)
				orig := layout.cut(t, rel, shards)
				path := filepath.Join(t.TempDir(), "rel.prox")
				if err := Write(path, orig); err != nil {
					t.Fatal(err)
				}
				f, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if f.Dim() != rel.Dim() || f.Tuples() != rel.Len() || f.Shards() != orig.NumShards() {
					t.Fatalf("metadata mismatch: dim=%d tuples=%d shards=%d", f.Dim(), f.Tuples(), f.Shards())
				}
				if f.MaxScore() != rel.MaxScore {
					t.Fatalf("maxScore=%v", f.MaxScore())
				}
				loaded, err := f.Load("t")
				if err != nil {
					t.Fatal(err)
				}
				if !loaded.FileBacked() {
					t.Fatal("loaded relation is not file-backed")
				}
				compareSharded(t, rel, orig, f, loaded)
			})
		}
	}
}

func partition(t *testing.T, rel *relation.Relation, n int) *relation.Sharded {
	t.Helper()
	s, err := relation.Partition(rel, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hashSharded cuts rel into at most n shards by an FNV-1a hash of each
// tuple's ID and assembles them over heap columns: shards that each span
// about the whole space, as a file of layout word 0 holds them.
func hashSharded(t *testing.T, rel *relation.Relation, n int) *relation.Sharded {
	t.Helper()
	tuples := make([][]relation.Tuple, n)
	ords := make([][]int, n)
	for i := 0; i < rel.Len(); i++ {
		tu := rel.At(i)
		h := fnv.New64a()
		h.Write([]byte(tu.ID))
		g := h.Sum64() % uint64(n)
		tuples[g], ords[g] = append(tuples[g], tu), append(ords[g], i)
	}
	var shards []relation.Columns
	for g := range tuples {
		if len(tuples[g]) == 0 {
			continue
		}
		sub, err := relation.New(rel.Name, rel.MaxScore, tuples[g])
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, parentOrdinals{partition(t, sub, 1).ShardColumns(0), ords[g]})
	}
	s, err := relation.AssembleSharded(rel, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// parentOrdinals maps the ordinals of a sub-relation's columns to the
// parent's. The sub-relation keeps the parent's order, so its score ties
// stay ordered by parent ordinal.
type parentOrdinals struct {
	relation.Columns
	ords []int
}

func (c parentOrdinals) Ordinal(i int) int { return c.ords[c.Columns.Ordinal(i)] }

// compareSharded checks the loaded bounds bit-for-bit against the
// partitioner's and every loaded tuple against the original relation by
// parent ordinal, plus the canonical storage order within each shard.
func compareSharded(t *testing.T, rel *relation.Relation, orig *relation.Sharded, f *File, loaded *relation.Sharded) {
	t.Helper()
	if loaded.NumShards() != orig.NumShards() {
		t.Fatalf("shards: %d vs %d", loaded.NumShards(), orig.NumShards())
	}
	seen := make([]bool, rel.Len())
	for i := 0; i < orig.NumShards(); i++ {
		ob, lb := orig.ShardBounds(i), loaded.ShardBounds(i)
		if math.Float64bits(ob.MaxScore) != math.Float64bits(lb.MaxScore) || ob.Tuples != lb.Tuples {
			t.Fatalf("shard %d bounds drifted: %+v vs %+v", i, ob, lb)
		}
		for d := range ob.Min {
			if math.Float64bits(ob.Min[d]) != math.Float64bits(lb.Min[d]) ||
				math.Float64bits(ob.Max[d]) != math.Float64bits(lb.Max[d]) {
				t.Fatalf("shard %d rectangle drifted: %+v vs %+v", i, ob, lb)
			}
		}
		view := &shardView{f: f, d: &f.views[i], dim: f.dim}
		prevScore := math.Inf(1)
		prevOrd := -1
		for j := 0; j < view.Len(); j++ {
			got := view.Tuple(j)
			ord := view.Ordinal(j)
			if seen[ord] {
				t.Fatalf("ordinal %d appears twice", ord)
			}
			seen[ord] = true
			want := rel.At(ord)
			if got.ID != want.ID || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Fatalf("shard %d tuple %d: got %q/%v want %q/%v", i, j, got.ID, got.Score, want.ID, want.Score)
			}
			for d := range want.Vec {
				if math.Float64bits(got.Vec[d]) != math.Float64bits(want.Vec[d]) {
					t.Fatalf("shard %d tuple %d vec drifted", i, j)
				}
			}
			if len(got.Attrs) != len(want.Attrs) {
				t.Fatalf("shard %d tuple %d attrs: %v vs %v", i, j, got.Attrs, want.Attrs)
			}
			for k, v := range want.Attrs {
				if got.Attrs[k] != v {
					t.Fatalf("shard %d tuple %d attr %q: %q vs %q", i, j, k, got.Attrs[k], v)
				}
			}
			if got.Score > prevScore || (got.Score == prevScore && ord <= prevOrd) {
				t.Fatalf("shard %d breaks canonical order at %d", i, j)
			}
			prevScore, prevOrd = got.Score, ord
		}
	}
	for ord, ok := range seen {
		if !ok {
			t.Fatalf("ordinal %d missing from file", ord)
		}
	}
}

// TestLoadsFileWrittenBeforeRectangles: testdata/grid4_bab7b5c.prox is
// testRelation(23, 60, 3) in 4 grid shards as relfile.Write encoded it at
// commit bab7b5c — a version-1 file: shards that are runs of a cell
// ordering, a bounding ball in every directory entry, and no rectangle
// anywhere in the format. It must still open, answer every stream as the
// relation itself does, and advertise a rectangle derived from its
// vectors; its ball bytes stay under the directory checksum. It
// re-encodes as version 2, and that file round-trips to its own bytes.
func TestLoadsFileWrittenBeforeRectangles(t *testing.T) {
	const path = "testdata/grid4_bab7b5c.prox"
	rel := testRelation(t, 23, 60, 3)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Shards() != 4 || f.Tuples() != rel.Len() || f.Dim() != rel.Dim() {
		t.Fatalf("fixture metadata: %d shards, %d tuples, dim %d", f.Shards(), f.Tuples(), f.Dim())
	}
	loaded, err := f.Load("t")
	if err != nil {
		t.Fatal(err)
	}
	ids := func(src relation.Source, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for {
			tu, err := src.Next()
			if errors.Is(err, relation.ErrExhausted) {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%q %x %x", tu.ID, math.Float64bits(tu.Score), tu.Vec))
		}
	}
	if got, want := ids(relation.OpenSource(loaded, relation.ScoreAccess, nil)), ids(relation.OpenSource(rel, relation.ScoreAccess, nil)); !slices.Equal(got, want) {
		t.Fatalf("score stream of the fixture differs from the relation's")
	}
	for _, q := range []vec.Vector{vec.Of(0, 0, 0), vec.Of(2.5, -1, 0.3), rel.At(7).Vec} {
		if got, want := ids(relation.OpenSource(loaded, relation.DistanceAccess, q)), ids(relation.OpenSource(rel, relation.DistanceAccess, q)); !slices.Equal(got, want) {
			t.Fatalf("distance stream from %v of the fixture differs from the relation's", q)
		}
		for i := 0; i < loaded.NumShards(); i++ {
			src, err := loaded.ShardSource(i, relation.DistanceAccess, q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			_, key, _, err := src.(relation.KeyedSource).NextKeyed()
			if b := loaded.ShardBounds(i); err != nil || len(b.Min) != rel.Dim() || b.Dist2LowerBound(q) > key {
				t.Fatalf("shard %d from %v: bounds %+v give %v, first key %v (err %v)", i, q, b, b.Dist2LowerBound(q), key, err)
			}
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != 1 {
		t.Fatalf("fixture is version %d, want 1", v)
	}
	ball := append([]byte(nil), raw...)
	ball[HeaderSize+88] ^= 0x01 // shard 0's radius
	if _, err := Decode(ball); err == nil || !strings.Contains(err.Error(), "directory checksum") {
		t.Fatalf("a flipped ball byte: %v, want the directory checksum refusal", err)
	}

	v2 := filepath.Join(t.TempDir(), "v2.prox")
	if err := Write(v2, loaded); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(want[8:12]); v != Version {
		t.Fatalf("the fixture re-encodes as version %d, want %d", v, Version)
	}
	f2, err := Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	reloaded, err := f2.Load("t")
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(t.TempDir(), "again.prox")
	if err := Write(again, reloaded); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(again); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-encoding the version-2 file changed its bytes (err %v)", err)
	}
}

func TestDecodeMatchesOpen(t *testing.T) {
	rel := testRelation(t, 7, 31, 2)
	path, _ := writeTemp(t, rel, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately misalign the input: Decode must realign internally.
	shifted := append(make([]byte, 1, len(raw)+1), raw...)
	f, err := Decode(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	if f.Tuples() != rel.Len() || f.Shards() != 3 {
		t.Fatalf("decode metadata: tuples=%d shards=%d", f.Tuples(), f.Shards())
	}
	if _, err := f.Load("t"); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRejectsUnencodable: a nil relation is refused; anything else
// encodes — a relfile mapped back re-encodes to the bytes it was loaded
// from.
func TestWriteRejectsUnencodable(t *testing.T) {
	if err := Write(filepath.Join(t.TempDir(), "x.prox"), nil); err == nil {
		t.Fatal("nil relation accepted")
	}
	for _, shards := range []int{1, 3} {
		rel := testRelation(t, 1, 16, 2)
		path, _ := writeTemp(t, rel, shards)
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		loaded, err := f.Load("t")
		if err != nil {
			t.Fatal(err)
		}
		again := filepath.Join(t.TempDir(), "y.prox")
		if err := Write(again, loaded); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d shards: re-encoding the loaded relfile changed its bytes", shards)
		}
	}
}

// TestWriteModeFollowsUmask: a written relfile has the permission bits
// os.Create gives a file in the same directory — 0666 less the umask —
// so a server running as another user can map what a generator wrote.
func TestWriteModeFollowsUmask(t *testing.T) {
	path, _ := writeTemp(t, testRelation(t, 2, 16, 2), 1)
	sibling, err := os.Create(filepath.Join(filepath.Dir(path), "sibling"))
	if err != nil {
		t.Fatal(err)
	}
	sibling.Close()
	var perm [2]os.FileMode
	for i, p := range []string{path, sibling.Name()} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		perm[i] = st.Mode().Perm()
	}
	if perm[0] != perm[1] {
		t.Fatalf("relfile written %v, os.Create makes %v", perm[0], perm[1])
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("directory holds %d entries after Write, want the relfile and the sibling", len(entries))
	}
}

// reseal recomputes the directory and header checksums after a test
// mutated file bytes, so the corruption under test is the only
// inconsistency left.
func reseal(data []byte) {
	dirOff := binary.LittleEndian.Uint64(data[40:48])
	dirLen := binary.LittleEndian.Uint64(data[48:56])
	table := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(data[56:60], crc32.Checksum(data[dirOff:dirOff+dirLen], table))
	binary.LittleEndian.PutUint32(data[60:64], crc32.Checksum(data[0:60], table))
}

func TestCorruptFiles(t *testing.T) {
	rel := testRelation(t, 3, 41, 2)
	path, _ := writeTemp(t, rel, 2)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dim := 2
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantSub string
	}{
		{"truncated header", func(b []byte) []byte { return b[:HeaderSize-10] }, "truncated header"},
		{"bad magic", func(b []byte) []byte { copy(b, "NOTAPROX"); return b }, "bad magic"},
		{"bad version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 99)
			reseal(b)
			return b
		}, "unsupported version"},
		{"header checksum mismatch", func(b []byte) []byte { b[33] ^= 0xff; return b }, "header checksum"},
		{"directory checksum mismatch", func(b []byte) []byte { b[HeaderSize+3] ^= 0xff; return b }, "directory checksum"},
		{"zero dim", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 0)
			reseal(b)
			return b
		}, "dimensionality"},
		{"absurd shard count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], 1<<20)
			reseal(b)
			return b
		}, "out of range"},
		{"non-finite max score", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:40], math.Float64bits(math.NaN()))
			reseal(b)
			return b
		}, "max score"},
		{"region outside file", func(b []byte) []byte {
			e := b[HeaderSize:]
			binary.LittleEndian.PutUint64(e[8:16], uint64(len(b))+8)
			reseal(b)
			return b
		}, "outside"},
		{"misaligned region", func(b []byte) []byte {
			e := b[HeaderSize:]
			off := binary.LittleEndian.Uint64(e[8:16])
			binary.LittleEndian.PutUint64(e[8:16], off+4)
			reseal(b)
			return b
		}, "misaligned"},
		{"shard checksum mismatch", func(b []byte) []byte {
			e := b[HeaderSize:]
			off := binary.LittleEndian.Uint64(e[8:16])
			b[off] ^= 0xff
			return b
		}, "region checksum"},
		{"overlapping directory entries", func(b []byte) []byte {
			e0 := b[HeaderSize : HeaderSize+uint64(entrySize(Version, dim))]
			e1 := b[HeaderSize+uint64(entrySize(Version, dim)) : HeaderSize+2*uint64(entrySize(Version, dim))]
			// Point shard 1's score region into shard 0's and recompute
			// shard 1's CRC so only the overlap is wrong.
			binary.LittleEndian.PutUint64(e1[8:16], binary.LittleEndian.Uint64(e0[8:16]))
			n1 := binary.LittleEndian.Uint64(e1[0:8])
			crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
			offs := [7]uint64{
				binary.LittleEndian.Uint64(e1[8:16]),
				binary.LittleEndian.Uint64(e1[16:24]),
				binary.LittleEndian.Uint64(e1[24:32]),
				binary.LittleEndian.Uint64(e1[32:40]),
				binary.LittleEndian.Uint64(e1[40:48]),
				binary.LittleEndian.Uint64(e1[56:64]),
				binary.LittleEndian.Uint64(e1[64:72]),
			}
			lens := [7]uint64{8 * n1, 8 * n1 * uint64(dim), 4 * n1, 4 * (n1 + 1),
				binary.LittleEndian.Uint64(e1[48:56]), 4 * (n1 + 1), binary.LittleEndian.Uint64(e1[72:80])}
			for r := 0; r < 7; r++ {
				crc.Write(b[offs[r] : offs[r]+lens[r]])
			}
			binary.LittleEndian.PutUint32(e1[80:84], crc.Sum32())
			reseal(b)
			return b
		}, "overlaps"},
		{"tuple count mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], binary.LittleEndian.Uint64(b[24:32])-1)
			reseal(b)
			return b
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), pristine...)
			b = tc.mutate(b)
			_, err := Decode(b)
			if err == nil {
				t.Fatal("corruption accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			// The same bytes through a temp file and Open must fail too.
			p := filepath.Join(t.TempDir(), "bad.prox")
			if werr := os.WriteFile(p, b, 0o644); werr != nil {
				t.Fatal(werr)
			}
			if _, oerr := Open(p); oerr == nil || !errors.Is(oerr, ErrCorrupt) {
				t.Fatalf("Open: %v", oerr)
			}
		})
	}
}

// TestTruncationSweep chops the file at every offset in a stride sweep:
// every prefix must fail cleanly, never panic or over-read.
func TestTruncationSweep(t *testing.T) {
	rel := testRelation(t, 9, 23, 2)
	path, _ := writeTemp(t, rel, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut += 13 {
		if _, err := Decode(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func FuzzRelFileDecode(f *testing.F) {
	rel := testRelation(f, 11, 19, 2)
	s, err := relation.Partition(rel, 2)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.prox")
	if err := Write(path, s); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:HeaderSize])
	f.Add([]byte(Magic))
	flipped := append([]byte(nil), raw...)
	flipped[70] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := Decode(data)
		if err != nil {
			return // any error is fine; panics and over-reads are not
		}
		// A file that validates must be fully traversable.
		loaded, err := pf.Load("fuzz")
		if err != nil {
			t.Fatalf("validated file failed to load: %v", err)
		}
		for i := 0; i < loaded.NumShards(); i++ {
			src, err := loaded.ShardSource(i, relation.ScoreAccess, nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			for {
				tu, err := src.Next()
				if errors.Is(err, relation.ErrExhausted) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				_ = tu.ID
				_ = tu.Attrs
			}
		}
	})
}

// TestBigEndianHostRefuses: on a big-endian host, Open and Decode refuse a
// sound file with ErrHostByteOrder, not ErrCorrupt, and hand out no view.
func TestBigEndianHostRefuses(t *testing.T) {
	path, _ := writeTemp(t, testRelation(t, 5, 20, 2), 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func(saved bool) { hostLittleEndian = saved }(hostLittleEndian)
	hostLittleEndian = false
	f, err := Open(path)
	if !errors.Is(err, ErrHostByteOrder) || errors.Is(err, ErrCorrupt) || f != nil {
		t.Fatalf("Open on a big-endian host: %v, %v", f, err)
	}
	f, err = Decode(raw)
	if !errors.Is(err, ErrHostByteOrder) || errors.Is(err, ErrCorrupt) || f != nil {
		t.Fatalf("Decode on a big-endian host: %v, %v", f, err)
	}
}
