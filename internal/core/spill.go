package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// A spill segment file holds one sorted batch of spilled combinations in
// compact columnar form:
//
//	magic "PROXSPL1" | arity u32 | count u32
//	count × (score f64 | arity × rank i32)    little-endian
//	crc u32                                   CRC-32C over the entry region
//
// Entries are written in descending (score, then ascending lexicographic
// ranks) order — before, the order the spill heap pops in — so revival is
// a k-way merge of the heap with already-sorted streams and emits the same
// sequence a purely in-memory spill heap would. The checksum is verified
// once per segment, when revival first reads it back (verifySpillSegment).
const (
	spillMagic      = "PROXSPL1"
	spillHeaderSize = 16
)

var spillCRC = crc32.MakeTable(crc32.Castagnoli)

// tierSeq disambiguates segment names across tiers within one process.
var tierSeq atomic.Int64

// spillTier is the file-backed tier of a session buffer's spill store.
// It owns a set of segment files, each sorted internally, plus the read
// cursors over them. Not safe for concurrent use — like the session
// buffer it extends, it belongs to a single Iterator, whose Close is what
// releases the segments of a session that stops before draining them.
type spillTier struct {
	dir       string
	n         int // ranks per entry
	watermark int // spill heap entries that trigger a flush
	id        int64
	seq       int
	segs      []*spillSegment
	stats     *Stats // SpilledBytes grows by every segment written
	fault     func() error
	prepared  bool   // dir created and swept, by the first flush
	entry     []byte // one entry's encoding, shared by every write and read
}

// spillSegment is one on-disk sorted batch plus its streaming read
// state. head/headRanks hold the next unconsumed entry once loaded.
type spillSegment struct {
	f         *os.File
	path      string
	count     int
	pos       int // entries consumed
	r         *bufio.Reader
	head      float64
	headRanks []int32
	loaded    bool
}

// spillEntrySize is the on-disk size of one combination.
func spillEntrySize(n int) int { return 8 + 4*n }

// newSpillTier returns a file-backed tier rooted at dir. It touches no
// file: most sessions never reach the watermark, so the directory is
// created, and swept of leftovers from dead processes, by the first flush.
func newSpillTier(dir string, n, memBytes int, stats *Stats, fault func() error) *spillTier {
	if memBytes == 0 {
		memBytes = DefaultSpillMemBytes
	}
	w := memBytes / spillEntrySize(n)
	if w < 1 {
		w = 1
	}
	return &spillTier{dir: dir, n: n, watermark: w, id: tierSeq.Add(1), stats: stats, fault: fault}
}

// entryBuf returns the tier's one entry buffer.
func (t *spillTier) entryBuf() []byte {
	if t.entry == nil {
		t.entry = make([]byte, spillEntrySize(t.n))
	}
	return t.entry
}

// sweepSpillDir removes spill segments left behind by processes that no
// longer exist — including partial segments torn by a crash mid-write.
// Files whose embedded pid is still alive are never touched, so
// concurrent sessions can share a spill directory.
func sweepSpillDir(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		pid, ok := spillSegmentPid(e.Name())
		if !ok || pidAlive(pid) {
			continue
		}
		os.Remove(filepath.Join(dir, e.Name()))
	}
}

// spillSegmentPid parses the owning pid out of a segment file name
// (prox-<pid>-<tier>-<seq>.spill).
func spillSegmentPid(name string) (int, bool) {
	if !strings.HasPrefix(name, "prox-") || !strings.HasSuffix(name, ".spill") {
		return 0, false
	}
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, "prox-"), ".spill"), "-")
	if len(parts) != 3 {
		return 0, false
	}
	pid, err := strconv.Atoi(parts[0])
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// verifySpillSegment checks that f holds a structurally complete segment
// — intact header, exact size for its entry count, and a matching
// checksum — and returns the arity and entry count its header declares. A
// writer killed mid-segment fails this, and so does a byte flipped on disk
// since the write.
func verifySpillSegment(f *os.File) (n, count int, err error) {
	var hdr [spillHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, 0, fmt.Errorf("header: %w", err)
	}
	if string(hdr[0:8]) != spillMagic {
		return 0, 0, fmt.Errorf("bad magic %q", hdr[0:8])
	}
	n = int(binary.LittleEndian.Uint32(hdr[8:12]))
	count = int(binary.LittleEndian.Uint32(hdr[12:16]))
	if n < 1 || count < 1 || n > 1<<16 {
		return 0, 0, fmt.Errorf("header declares arity %d, %d entries", n, count)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	body := int64(count) * int64(spillEntrySize(n))
	if want := int64(spillHeaderSize) + body + 4; st.Size() != want {
		return 0, 0, fmt.Errorf("size %d, want %d for %d entries", st.Size(), want, count)
	}
	crc := crc32.New(spillCRC)
	if _, err := io.Copy(crc, io.NewSectionReader(f, spillHeaderSize, body)); err != nil {
		return 0, 0, err
	}
	var tail [4]byte
	if _, err := f.ReadAt(tail[:], spillHeaderSize+body); err != nil {
		return 0, 0, fmt.Errorf("trailer: %w", err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(tail[:]); got != want {
		return 0, 0, fmt.Errorf("checksum %08x, trailer says %08x", got, want)
	}
	return n, count, nil
}

// flush writes one sorted run as one segment file
// and counts its bytes. The file descriptor stays open: reads go through
// the same fd, so an external unlink cannot hurt a live session. Any
// failure poisons the session. A write the system refused (ENOSPC, EIO)
// also unlinks what it left — this process is alive, so no sweep would
// ever take the torn file — while an injected fault stands for the
// process dying mid-segment and leaves it, exactly as a crash would.
func (t *spillTier) flush(scores []float64, ranks []int32) error {
	if !t.prepared {
		if err := os.MkdirAll(t.dir, 0o755); err != nil {
			return fmt.Errorf("core: spill dir: %w", err)
		}
		sweepSpillDir(t.dir)
		t.prepared = true
	}
	name := fmt.Sprintf("prox-%d-%d-%d.spill", os.Getpid(), t.id, t.seq)
	t.seq++
	path := filepath.Join(t.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("core: spill segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var hdr [spillHeaderSize]byte
	copy(hdr[0:8], spillMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(t.n))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(scores)))
	crc := crc32.New(spillCRC)
	entry := t.entryBuf()
	crashed := false
	werr := func() error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		for i, s := range scores {
			if t.fault != nil {
				if err := t.fault(); err != nil {
					crashed = true
					return err
				}
			}
			binary.LittleEndian.PutUint64(entry[0:8], math.Float64bits(s))
			for j := 0; j < t.n; j++ {
				binary.LittleEndian.PutUint32(entry[8+4*j:], uint32(ranks[i*t.n+j]))
			}
			crc.Write(entry)
			if _, err := w.Write(entry); err != nil {
				return err
			}
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
		if _, err := w.Write(tail[:]); err != nil {
			return err
		}
		return w.Flush()
	}()
	if werr != nil {
		if crashed {
			w.Flush() // what the OS would already have had
		}
		f.Close()
		if !crashed {
			os.Remove(path)
		}
		return fmt.Errorf("core: spill segment %s: %w", name, werr)
	}
	t.segs = append(t.segs, &spillSegment{f: f, path: path, count: len(scores)})
	t.stats.SpilledBytes += int64(spillHeaderSize + len(scores)*len(entry) + 4)
	return nil
}

// ensureHead loads the segment's next entry into head/headRanks, verifying
// the whole segment against its checksum before the first one. Returns
// false when the segment is exhausted; an error poisons the session.
func (t *spillTier) ensureHead(s *spillSegment) (bool, error) {
	if s.loaded {
		return true, nil
	}
	if s.pos >= s.count {
		return false, nil
	}
	if s.r == nil {
		// First read of this segment: nothing in it is trusted until the
		// whole file has passed the check its trailer exists for.
		n, count, err := verifySpillSegment(s.f)
		if err == nil && (n != t.n || count != s.count) {
			err = fmt.Errorf("header declares arity %d, %d entries; wrote %d, %d", n, count, t.n, s.count)
		}
		if err != nil {
			return false, fmt.Errorf("core: spill segment %s: %w", s.path, err)
		}
		s.r = bufio.NewReaderSize(io.NewSectionReader(s.f, spillHeaderSize, int64(s.count)*int64(spillEntrySize(t.n))), 1<<16)
	}
	entry := t.entryBuf()
	if _, err := io.ReadFull(s.r, entry); err != nil {
		return false, fmt.Errorf("core: spill read %s: %w", s.path, err)
	}
	s.head = math.Float64frombits(binary.LittleEndian.Uint64(entry[0:8]))
	if s.headRanks == nil {
		s.headRanks = make([]int32, t.n)
	}
	for j := 0; j < t.n; j++ {
		s.headRanks[j] = int32(binary.LittleEndian.Uint32(entry[8+4*j:]))
	}
	s.pos++
	s.loaded = true
	return true, nil
}

// compact drops exhausted segments, closing and unlinking their files.
func (t *spillTier) compact() {
	live := t.segs[:0]
	for _, s := range t.segs {
		if !s.loaded && s.pos >= s.count {
			s.f.Close()
			os.Remove(s.path)
			continue
		}
		live = append(live, s)
	}
	t.segs = live
}

// discard closes and unlinks every segment still held.
func (t *spillTier) discard() {
	for _, s := range t.segs {
		s.f.Close()
		os.Remove(s.path)
	}
	t.segs = nil
}
