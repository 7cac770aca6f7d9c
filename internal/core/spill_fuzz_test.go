package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpillSegmentDecode feeds arbitrary bytes to the two readers a
// segment file meets on revival — verifySpillSegment, then ensureHead
// entry by entry. Neither may panic; whatever the header claims, nothing
// is sized from it before the file's own length has vouched for it; and a
// file that is accepted is exactly one this writer produces: its entries
// flushed again give the same bytes.
func FuzzSpillSegmentDecode(f *testing.F) {
	seedDir := f.TempDir()
	seed := &spillTier{dir: seedDir, n: 2, stats: new(Stats)}
	if err := seed.flush([]float64{0.9, 0.5, 0.5, 0.1}, []int32{0, 1, 2, 3, 2, 4, 5, 6}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed.segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	seed.discard()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                     // torn mid-entry
	f.Add(append([]byte("PROXSPL2"), valid[8:]...)) // another format
	f.Add(append(append([]byte{}, valid...), 0))    // trailing byte
	huge := append([]byte{}, valid...)              // header claiming 2³²−1 entries of arity 65536
	binary.LittleEndian.PutUint32(huge[8:12], 1<<16)
	binary.LittleEndian.PutUint32(huge[12:16], 1<<32-1)
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.spill")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		n, count, err := verifySpillSegment(file)
		if err != nil {
			return
		}
		if want := spillHeaderSize + count*spillEntrySize(n) + 4; want != len(data) {
			t.Fatalf("accepted %d bytes as %d entries of arity %d (%d bytes)", len(data), count, n, want)
		}
		tier := &spillTier{dir: dir, n: n, stats: new(Stats)}
		seg := &spillSegment{f: file, path: path, count: count}
		scores := make([]float64, 0, count)
		ranks := make([]int32, 0, count*n)
		for {
			ok, err := tier.ensureHead(seg)
			if err != nil {
				t.Fatalf("verified segment fails to read back: %v", err)
			}
			if !ok {
				break
			}
			scores = append(scores, seg.head)
			ranks = append(ranks, seg.headRanks...)
			seg.loaded = false
		}
		if len(scores) != count {
			t.Fatalf("read %d entries of %d", len(scores), count)
		}
		if err := tier.flush(scores, ranks); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(tier.segs[0].path)
		tier.discard()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted segment does not re-encode to itself:\n in  %x\n out %x", data, again)
		}
	})
}
