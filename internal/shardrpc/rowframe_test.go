package shardrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// rowSource replays fixed rows as a KeyedSource: the encoder's input in
// tests that need rows no real relation would hold.
type rowSource struct {
	rows []WireTuple
	pos  int
}

func (s *rowSource) Kind() relation.AccessKind    { return relation.DistanceAccess }
func (s *rowSource) Relation() *relation.Relation { return nil }
func (s *rowSource) Next() (relation.Tuple, error) {
	t, _, _, err := s.NextKeyed()
	return t, err
}
func (s *rowSource) NextKeyed() (relation.Tuple, float64, int, error) {
	if s.pos >= len(s.rows) {
		return relation.Tuple{}, 0, 0, relation.ErrExhausted
	}
	w := s.rows[s.pos]
	s.pos++
	return w.Tuple(), w.Key, w.Ord, nil
}

// encodeRows frames rows (at most batch of them) and returns the payload
// — the frame without its length prefix.
func encodeRows(t testing.TB, rows []WireTuple, batch int) []byte {
	t.Helper()
	frame, _, err := appendRowFrame(nil, &rowSource{rows: rows}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if n := int(binary.BigEndian.Uint32(frame)); n != len(frame)-4 {
		t.Fatalf("length prefix says %d, payload is %d bytes", n, len(frame)-4)
	}
	return frame[4:]
}

// sameRows compares decoded rows with the rows encoded, floats by bit
// pattern (so -0 and 0 differ) and empty attrs equal to none.
func sameRows(got, want []WireTuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Key) != math.Float64bits(w.Key) || g.Ord != w.Ord || g.ID != w.ID ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) || len(g.Vec) != len(w.Vec) || len(g.Attrs) != len(w.Attrs) {
			return false
		}
		for c := range w.Vec {
			if math.Float64bits(g.Vec[c]) != math.Float64bits(w.Vec[c]) {
				return false
			}
		}
		if len(w.Attrs) > 0 && !reflect.DeepEqual(g.Attrs, w.Attrs) {
			return false
		}
	}
	return true
}

// TestRowFrameRoundTrip: random batches — extreme and signed-zero
// floats, empty and multi-byte ids, attrs, dim 1 and up, short and full
// batches — survive encode/decode bit for bit.
func TestRowFrameRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	floats := []float64{0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.Nextafter(1, 2), 0.1}
	pick := func() float64 {
		if rnd.Intn(3) == 0 {
			return floats[rnd.Intn(len(floats))]
		}
		return rnd.NormFloat64() * 1e3
	}
	ids := []string{"", "a", "h1", "héllo wörld", "日本語のID", strings.Repeat("x", 300)}
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rnd.Intn(5)
		rows := make([]WireTuple, rnd.Intn(40))
		for i := range rows {
			w := WireTuple{Key: pick(), Ord: rnd.Intn(1 << 40), ID: ids[rnd.Intn(len(ids))], Score: pick(), Vec: make([]float64, dim)}
			for c := range w.Vec {
				w.Vec[c] = pick()
			}
			if n := rnd.Intn(4); n > 0 && rnd.Intn(2) == 0 {
				w.Attrs = map[string]string{}
				for ; n > 0; n-- {
					w.Attrs[ids[1+rnd.Intn(len(ids)-1)]] = ids[rnd.Intn(len(ids))]
				}
			}
			rows[i] = w
		}
		batch := 1 + rnd.Intn(48)
		want, wantDone := rows, true
		if batch <= len(rows) {
			want, wantDone = rows[:batch], false
		}
		got, done, _, err := decodeRowFrame(encodeRows(t, rows, batch))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if done != wantDone || !sameRows(got, want) {
			t.Fatalf("trial %d: %d rows batch %d came back as %d rows, done %v", trial, len(rows), batch, len(got), done)
		}
	}
	// Zero rows + done: what a pull at an offset past the end answers.
	got, done, _, err := decodeRowFrame(encodeRows(t, nil, 8))
	if err != nil || !done || len(got) != 0 {
		t.Fatalf("empty stream: rows %d done %v err %v", len(got), done, err)
	}
}

// TestRowFrameDeterministic: attrs are map-ordered in memory, sorted on
// the wire, so replicas (and hedged lanes) send identical bytes.
func TestRowFrameDeterministic(t *testing.T) {
	rows := []WireTuple{{ID: "a", Vec: []float64{1}, Attrs: map[string]string{"z": "1", "a": "2", "m": "3", "b": "4", "q": "5"}}}
	first := encodeRows(t, rows, 1)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(encodeRows(t, rows, 1), first) {
			t.Fatal("the same row encoded to different bytes")
		}
	}
}

// reseal recomputes a payload's checksum, for tests that forge a field
// and need the frame to get past the CRC to the check under test.
func reseal(p []byte) []byte {
	le.PutUint32(p[len(p)-4:], crc32.Checksum(p[:len(p)-4], castagnoli))
	return p
}

// TestRowFrameRejects: every documented reason to refuse a frame, each
// with an otherwise valid checksum so the named check is the one firing.
func TestRowFrameRejects(t *testing.T) {
	rows := []WireTuple{
		{Key: 1, Ord: 3, ID: "h1", Score: 0.5, Vec: []float64{1, 2}, Attrs: map[string]string{"k": "v"}},
		{Key: 2, Ord: 4, ID: "h2", Score: 0.25, Vec: []float64{3, 4}},
	}
	valid := func() []byte { return encodeRows(t, rows, 8) }
	cases := map[string]func(p []byte) []byte{
		"bad magic":       func(p []byte) []byte { p[0] = 'Q'; return reseal(p) },
		"bad version":     func(p []byte) []byte { p[4] = rowVersion - 1; return reseal(p) },
		"unknown flag":    func(p []byte) []byte { p[5] |= 0x80; return reseal(p) },
		"reserved set":    func(p []byte) []byte { p[6] = 1; return reseal(p) },
		"count overflow":  func(p []byte) []byte { le.PutUint32(p[8:], math.MaxUint32); return reseal(p) },
		"dim overflow":    func(p []byte) []byte { le.PutUint32(p[12:], math.MaxUint32); return reseal(p) },
		"count x dim":     func(p []byte) []byte { le.PutUint32(p[8:], 1<<20); le.PutUint32(p[12:], 1<<20); return reseal(p) },
		"one row short":   func(p []byte) []byte { le.PutUint32(p[8:], 1); return reseal(p) },
		"one row over":    func(p []byte) []byte { le.PutUint32(p[8:], 3); return reseal(p) },
		"truncated id":    func(p []byte) []byte { le.PutUint32(p[rowHeaderLen+rowNumLen+16:], 1<<16); return reseal(p) },
		"truncated attrs": func(p []byte) []byte { le.PutUint32(p[rowHeaderLen+rowNumLen+16+4+2:], 40); return reseal(p) },
		"huge ordinal":    func(p []byte) []byte { le.PutUint64(p[rowHeaderLen+8:], 1<<63); return reseal(p) },
		"crc mismatch":    func(p []byte) []byte { p[rowHeaderLen+3] ^= 0x01; return p },
		"cut short":       func(p []byte) []byte { return p[:len(p)-5] },
		"too short":       func(p []byte) []byte { return p[:10] },
		"json":            func([]byte) []byte { return []byte(`{"tuples":[]}`) },
	}
	for name, forge := range cases {
		if _, _, _, err := decodeRowFrame(forge(valid())); !errors.Is(err, errRowFrame) {
			t.Errorf("%s: err = %v, want errRowFrame", name, err)
		}
	}
	if _, _, _, err := decodeRowFrame(valid()); err != nil {
		t.Fatalf("the unforged frame: %v", err)
	}
}

// TestRowFrameForgedCountAllocatesNothing: a header claiming 4 billion
// rows over a 60-byte payload is refused before anything is sized by it.
func TestRowFrameForgedCountAllocatesNothing(t *testing.T) {
	p := encodeRows(t, []WireTuple{{ID: "a", Vec: []float64{1}}}, 1)
	le.PutUint32(p[8:], math.MaxUint32)
	reseal(p)
	// TotalAlloc is the whole process's: goroutines earlier tests left
	// winding down (closing servers, expiring timers) allocate beside the
	// call. They can only add, so the least of a few attempts is the call's
	// own — an allocation sized by the forged count would be in every one.
	least := uint64(math.MaxUint64)
	for attempt := 0; attempt < 5 && least > 4<<10; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := decodeRowFrame(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("forged count accepted")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(p), least)
	}
}

// TestReadPayloadBoundsAllocation: a length prefix over the caller's
// limit is refused outright, and one under it that lies (nothing
// follows) costs the reader one 64 KiB chunk, not the claimed size.
func TestReadPayloadBoundsAllocation(t *testing.T) {
	limit := pullFrameLimit(rampStart, 2)
	if limit >= maxFrame/32 {
		t.Fatalf("a %d-row pull accepts %d-byte frames; the cap is not doing anything", rampStart, limit)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(limit+1))
	if _, err := readPayload(bytes.NewReader(hdr[:]), limit, nil); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("over-limit prefix: err = %v, want a refusal before reading", err)
	}
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readPayload(bytes.NewReader(hdr[:]), maxFrame, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 64 MiB prefix with no payload behind it read cleanly")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a lying 64 MiB prefix made the reader allocate %d bytes", grew)
	}
	// A long honest payload still arrives whole, across several chunks.
	long := bytes.Repeat([]byte("0123456789abcdef"), 40<<10) // 640 KiB
	binary.BigEndian.PutUint32(hdr[:], uint32(len(long)))
	got, err := readPayload(io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(long)), maxFrame, nil)
	if err != nil || !bytes.Equal(got, long) {
		t.Fatalf("chunked read: %d bytes, err %v", len(got), err)
	}
	// A buffer handed in is read into from its start: a shorter payload
	// lands in the same memory and is exactly as long as its prefix says.
	short := []byte("short")
	binary.BigEndian.PutUint32(hdr[:], uint32(len(short)))
	again, err := readPayload(io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(short)), maxFrame, got)
	if err != nil || !bytes.Equal(again, short) || &again[0] != &got[0] {
		t.Fatalf("read into a used buffer: %q, err %v, same memory %v", again, err, err == nil && &again[0] == &got[0])
	}
}

// TestRowTextLimit: the server refuses to frame a row whose id and attrs
// outgrow what pullFrameLimit budgets per row, so a legitimate frame can
// never trip the client's cap.
func TestRowTextLimit(t *testing.T) {
	big := []WireTuple{{ID: strings.Repeat("x", maxRowText), Vec: []float64{1}}}
	if _, _, err := appendRowFrame(nil, &rowSource{rows: big}, 1); err == nil {
		t.Fatal("a row over the text limit was framed")
	}
	fits := []WireTuple{{ID: strings.Repeat("x", maxRowText-rowMinText), Vec: []float64{1}}}
	if p := encodeRows(t, fits, 1); len(p) > pullFrameLimit(1, 1) {
		t.Fatalf("a row at the text limit makes a %d-byte frame, over the %d-byte cap for its batch", len(p), pullFrameLimit(1, 1))
	}
}

// fuzzSeeds returns one real frame per access kind over the shared test
// relation, each with its faultinject-corrupted twin.
func fuzzSeeds(t testing.TB) [][]byte {
	rel := testRelation(t, "pts", 7, 90, 2)
	sharded, err := relation.Partition(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		src, err := sharded.ShardSource(0, kind, []float64{2, 2}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, err := appendRowFrame(nil, src.(relation.KeyedSource), 24)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, frame[4:], faultinject.Corrupt(frame)[4:])
	}
	return seeds
}

// TestCorruptedFrameRejected: the exact damage faultinject's corrupt
// action does is caught by the checksum for both access kinds.
func TestCorruptedFrameRejected(t *testing.T) {
	for i, p := range fuzzSeeds(t) {
		_, _, _, err := decodeRowFrame(p)
		if corrupted := i%2 == 1; corrupted != (err != nil) {
			t.Fatalf("seed %d (corrupted=%v): err = %v", i, corrupted, err)
		} else if corrupted && !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("seed %d refused for %v, want the checksum to catch it", i, err)
		}
	}
}

// FuzzRowFrameDecode: no payload panics the decoder, every refusal is an
// errRowFrame, whatever decodes is no bigger than the payload admits
// (rows and coordinates both fit the bytes that carried them), and it
// re-encodes to a frame that decodes the same.
func FuzzRowFrameDecode(f *testing.F) {
	for _, p := range fuzzSeeds(f) {
		f.Add(p)
	}
	f.Add(encodeRows(f, nil, 1))
	f.Add(encodeRows(f, []WireTuple{{ID: "é", Vec: []float64{math.Copysign(0, -1)}, Attrs: map[string]string{"k": "v"}}}, 4))
	f.Add([]byte(`{"err":{"code":"not_found","message":"x"}}`))
	f.Fuzz(func(t *testing.T, p []byte) {
		rows, _, _, err := decodeRowFrame(p)
		if err != nil {
			if !errors.Is(err, errRowFrame) {
				t.Fatalf("refusal is not an errRowFrame: %v", err)
			}
			return
		}
		coords := 0
		for _, w := range rows {
			coords += len(w.Vec)
		}
		if len(rows)*(rowNumLen+rowMinText)+8*coords > len(p) {
			t.Fatalf("%d rows with %d coordinates decoded out of %d bytes", len(rows), coords, len(p))
		}
		again, done, _, err := decodeRowFrame(encodeRows(t, rows, len(rows)+1))
		if err != nil || !done || !sameRows(again, rows) {
			t.Fatalf("decoded rows do not survive a re-encode: err %v", err)
		}
	})
}

// TestRowFrameShardsRead: a row frame carries how many shards of the
// pulled set the server's merge has read, batch by batch, and a frame
// drained from one shard's own stream says 1. The field is the merge's
// count at the moment the frame was cut, so it only grows, and it
// reaches the whole set once the stream is done.
func TestRowFrameShardsRead(t *testing.T) {
	rel := testRelation(t, "pts", 7, 300, 2)
	sharded, err := relation.Partition(rel, 6)
	if err != nil {
		t.Fatal(err)
	}
	one, err := sharded.OpenShardSet([]int{2}, relation.DistanceAccess, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := appendRowFrame(nil, one, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, read, err := decodeRowFrame(frame[4:]); err != nil || read != 1 {
		t.Fatalf("one shard's stream: read %d, err %v; want 1", read, err)
	}
	set := []int{0, 2, 3, 5}
	src, err := sharded.OpenShardSet(set, relation.DistanceAccess, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	merged := src.(*relation.MergedSource)
	last, partial := 0, false
	for done := false; !done; {
		var frame []byte
		if frame, done, err = appendRowFrame(nil, src, 4); err != nil {
			t.Fatal(err)
		}
		_, gotDone, read, err := decodeRowFrame(frame[4:])
		if err != nil || gotDone != done {
			t.Fatalf("decode: done %v, want %v, err %v", gotDone, done, err)
		}
		if read != merged.InputsRead() || read < last || read > len(set) {
			t.Fatalf("frame says %d shards read, the merge %d, the last frame %d", read, merged.InputsRead(), last)
		}
		partial = partial || read < len(set)
		last = read
	}
	if last != len(set) || !partial {
		t.Fatalf("the set's frames read %d of %d shards at the end (some frame below the set: %v)", last, len(set), partial)
	}
}
