// Package relfile implements the .prox relation file: a versioned,
// checksummed, memory-mapped columnar format that stores a partitioned
// relation exactly as the serving path wants to read it, so the catalog
// opens a prebuilt relation without re-sorting, re-partitioning, or
// copying tuples onto the heap.
//
// # File layout
//
//	header (64 B)
//	  magic "PROXREL1" | version u32 | layout u32 | dim u32 | shards u32
//	  tuples u64 | maxScore f64 | dirOff u64 | dirLen u64
//	  dirCRC u32 | headerCRC u32
//	shard directory (shards × 88 B, CRC-guarded)
//	  per shard: tuple count u64 | offsets u64 of scores, vecs, ords,
//	  idOffs, idBytes | idBytes length u64 | offsets u64 of attrOffs,
//	  attrBytes | attrBytes length u64 | region CRC u32 | 4 zero bytes
//	per-shard regions (8-byte aligned, zero-padded between)
//	  scores  n × f64   rank slab: non-increasing, ties by ordinal
//	  vecs    n × dim × f64
//	  ords    n × u32   parent-relation ordinals
//	  idOffs  (n+1) × u32 into idBytes
//	  idBytes raw ID bytes
//	  attrOffs (n+1) × u32 into attrBytes
//	  attrBytes per-tuple blobs: count u32, then sorted (klen u32, key,
//	  vlen u32, value) pairs; empty blob = no attributes
//
// A version-1 file's directory entries are 16 + 8·dim bytes longer: a
// bounding ball (radius, then the shard's max score, then the centroid)
// that Open skips, the directory checksum still covering it. Write emits
// version 2 only, which stores no shard bounds: for either version,
// relation.AssembleSharded derives each shard's rectangle, max score and
// size from the mapped columns, as Partition does from its heap columns.
//
// All integers and float bit patterns are little-endian, and the column
// views read them as native words, so a big-endian host refuses every
// file (ErrHostByteOrder) rather than map byte-swapped values; checksums
// are CRC-32C (Castagnoli). Every shard's storage order is the canonical
// score-access order — scores non-increasing, equal scores by ascending
// parent ordinal — which is the order relation.Partition keeps its heap
// columns in, so Write dumps them as they are and a loaded shard streams
// score access with no sort. Each shard is one contiguous run of file
// regions; per-shard index builds and shardrpc bounding metadata read
// straight from those regions.
//
// The layout word says how the shards were cut. Write emits 1, the
// grid partitioner's boxes. A file written before grid was the only
// partitioner may carry 0, a hash of tuple IDs, whose shards each span
// the whole space; Open accepts it and its shards serve as they are,
// answering exactly as grid shards do, only pruning less. Any other
// word is corrupt.
//
// Open validates the whole file — header and directory checksums, region
// alignment, bounds and non-overlap of every directory entry, per-shard
// CRCs, the ordinal permutation, score order, offset-table monotonicity,
// and attribute blob structure — before handing out any view, so a later
// read can never step outside the mapping. Checksums detect accidental
// corruption; the format is not hardened against adversarial files
// beyond never reading out of bounds.
//
// # Mapping lifetime
//
// A mapping lives exactly as long as Go can reach it. Every relation a
// File loads, and every stream over one, holds the *File, and Open
// registers Close as its finalizer, so the mapping is unmapped once the
// last of them is collected: a catalog eviction or a re-load leaves the
// old generation to the collector, not to the process's lifetime. Nothing
// handed out past the relation aliases mapped bytes — a tuple's ID,
// attributes and vector are heap copies — so a query result, a cached
// response or a stream event stays valid after its relation is gone. Only
// the index builds and the distance scan read the mapping in place
// (shardView.Vec, VecSlab), and they hold the relation while they do; a
// function that reads such a slab past its last use of the owner keeps it
// alive with runtime.KeepAlive. MappedBytes reports the bytes currently
// mapped. An explicit Close unmaps at once and invalidates every view:
// it is for tools and tests that know nothing reads the File again.
package relfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Format constants. These are wire-stable: bump Version on any
// incompatible layout change.
const (
	// Magic is the 8-byte file signature.
	Magic = "PROXREL1"
	// Version is the format version Write emits. Open also reads version
	// 1, whose directory entries carry a bounding ball (see the package
	// comment).
	Version = 2
	// HeaderSize is the fixed header length in bytes.
	HeaderSize = 64
	// gridLayout is the header's layout word for grid-partitioned shards,
	// the only layout Write emits; Open also reads 0 (see the package
	// comment).
	gridLayout = 1
	// Extension is the conventional file suffix; the catalog and
	// proxserve recognize it to select the relfile loader.
	Extension = ".prox"
)

// ErrCorrupt is wrapped by every structural validation failure, so
// callers can distinguish a damaged file from an I/O error with
// errors.Is.
var ErrCorrupt = errors.New("relfile: corrupt file")

// ErrHostByteOrder is returned by Open and Decode on a big-endian host:
// the file's columns are little-endian words that the views read in
// place, so such a host would see byte-swapped scores and vectors. It
// does not wrap ErrCorrupt — the file may well be sound.
var ErrHostByteOrder = errors.New("relfile: host is big-endian; relation files map little-endian words")

// hostLittleEndian reports whether the host's native word order is the
// format's. A variable, not a constant, so a test can take the
// big-endian path on a little-endian host.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// corruptf builds a structured validation error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mappedBytes is the size of every file Open has mapped and Close (called
// explicitly or by the finalizer) has not yet unmapped.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of relation files currently mapped by
// Open, in this process: it rises at Open and falls when a File is
// closed, explicitly or once nothing reaches it.
func MappedBytes() int64 { return mappedBytes.Load() }

// entrySize is the directory entry length for one shard in a file of
// the given version.
func entrySize(version, dim int) int {
	if version == 1 {
		return 104 + 8*dim
	}
	return 88
}

// align8 rounds up to the next multiple of 8.
func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// shardData is one parsed, validated shard: typed views into the
// mapping.
type shardData struct {
	n         int
	scores    []float64
	vecs      []float64
	ords      []uint32
	idOffs    []uint32
	idBytes   []byte
	attrOffs  []uint32
	attrBytes []byte
}

// File is an opened, fully validated relation file. Its views alias the
// mapping; see the package comment for the lifetime contract.
type File struct {
	data     []byte
	hold     any // retains the fallback read buffer (non-mmap platforms)
	unmap    func() error
	closeOne sync.Once
	closeErr error

	dim      int
	tuples   int
	maxScore float64
	views    []shardData
}

// Open maps the file at path read-only and validates it end to end.
func Open(path string) (*File, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("relfile: %s: %w", path, ErrHostByteOrder)
	}
	h, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relfile: %w", err)
	}
	defer h.Close()
	st, err := h.Stat()
	if err != nil {
		return nil, fmt.Errorf("relfile: %w", err)
	}
	size := st.Size()
	if size < HeaderSize {
		return nil, fmt.Errorf("relfile: %s: file is %d bytes, header needs %d: %w", path, size, HeaderSize, ErrCorrupt)
	}
	const maxSize = 1 << 46
	if size > maxSize {
		return nil, fmt.Errorf("relfile: %s: %d bytes exceeds the mappable maximum", path, size)
	}
	data, unmap, hold, err := mapFile(h, size)
	if err != nil {
		return nil, fmt.Errorf("relfile: %s: %w", path, err)
	}
	f, err := parse(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, fmt.Errorf("relfile: %s: %w", path, err)
	}
	f.unmap, f.hold = unmap, hold
	mappedBytes.Add(size)
	runtime.SetFinalizer(f, (*File).Close)
	return f, nil
}

// Decode parses a relation file from a byte slice (no mapping). The
// bytes are copied into 8-byte-aligned storage first, so data of any
// alignment — including fuzzer inputs — is safe.
func Decode(data []byte) (*File, error) {
	if !hostLittleEndian {
		return nil, ErrHostByteOrder
	}
	aligned, hold := alignedCopy(data)
	f, err := parse(aligned)
	if err != nil {
		return nil, err
	}
	f.hold = hold
	return f, nil
}

// alignedCopy copies b into the bytes of a fresh []uint64, guaranteeing
// the 8-byte base alignment the float/int views require.
func alignedCopy(b []byte) ([]byte, any) {
	words := make([]uint64, (len(b)+7)/8+1)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)[:len(b)]
	copy(out, b)
	return out, words
}

// Close unmaps the file and clears its finalizer. Every view handed out
// — relations from Load and the streams over them — becomes
// invalid, so only a caller that knows none is read again calls it; the
// serving path leaves unmapping to the finalizer (see the package
// comment). Tuples already produced stay valid: they own their bytes.
func (f *File) Close() error {
	f.closeOne.Do(func() {
		runtime.SetFinalizer(f, nil)
		f.views = nil
		if f.unmap != nil {
			mappedBytes.Add(-int64(len(f.data)))
			f.closeErr = f.unmap()
		}
		f.data = nil
	})
	return f.closeErr
}

// Dim returns the feature dimensionality.
func (f *File) Dim() int { return f.dim }

// Tuples returns the total tuple count across shards.
func (f *File) Tuples() int { return f.tuples }

// MaxScore returns the relation's declared σ_max.
func (f *File) MaxScore() float64 { return f.maxScore }

// Shards returns the shard count.
func (f *File) Shards() int { return len(f.views) }

// parse validates data (which must be 8-byte aligned) and builds the
// typed views. It never reads outside data.
func parse(data []byte) (*File, error) {
	if len(data) < HeaderSize {
		return nil, corruptf("truncated header: %d bytes", len(data))
	}
	if string(data[0:8]) != Magic {
		return nil, corruptf("bad magic %q", data[0:8])
	}
	if crc32.Checksum(data[0:60], castagnoli) != binary.LittleEndian.Uint32(data[60:64]) {
		return nil, corruptf("header checksum mismatch")
	}
	version := int(binary.LittleEndian.Uint32(data[8:12]))
	if version != 1 && version != Version {
		return nil, corruptf("unsupported version %d (want 1 or %d)", version, Version)
	}
	if layout := binary.LittleEndian.Uint32(data[12:16]); layout > gridLayout {
		return nil, corruptf("unknown partition layout %d", layout)
	}
	dim := int(binary.LittleEndian.Uint32(data[16:20]))
	shards := int(binary.LittleEndian.Uint32(data[20:24]))
	tuples := binary.LittleEndian.Uint64(data[24:32])
	maxScore := math.Float64frombits(binary.LittleEndian.Uint64(data[32:40]))
	dirOff := binary.LittleEndian.Uint64(data[40:48])
	dirLen := binary.LittleEndian.Uint64(data[48:56])
	dirCRC := binary.LittleEndian.Uint32(data[56:60])

	if dim < 1 || dim > 1<<20 {
		return nil, corruptf("dimensionality %d out of range", dim)
	}
	if shards < 1 || shards > 1<<16 {
		return nil, corruptf("shard count %d out of range", shards)
	}
	if tuples < 1 || tuples > uint64(len(data)) {
		return nil, corruptf("tuple count %d out of range", tuples)
	}
	if math.IsNaN(maxScore) || math.IsInf(maxScore, 0) || maxScore <= 0 {
		return nil, corruptf("max score %v must be finite and positive", maxScore)
	}
	if dirOff != HeaderSize {
		return nil, corruptf("directory offset %d, want %d", dirOff, HeaderSize)
	}
	if want := uint64(shards) * uint64(entrySize(version, dim)); dirLen != want {
		return nil, corruptf("directory length %d, want %d for %d shards", dirLen, want, shards)
	}
	dir, err := region(data, dirOff, dirLen, "directory")
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(dir, castagnoli) != dirCRC {
		return nil, corruptf("directory checksum mismatch")
	}

	f := &File{
		data:     data,
		dim:      dim,
		tuples:   int(tuples),
		maxScore: maxScore,
		views:    make([]shardData, shards),
	}
	// Interval bookkeeping for the non-overlap check: header, directory,
	// and every shard region must occupy disjoint byte ranges.
	type span struct {
		start, end uint64
		what       string
	}
	spans := []span{
		{0, HeaderSize, "header"},
		{dirOff, dirOff + dirLen, "directory"},
	}

	sum := uint64(0)
	for s := 0; s < shards; s++ {
		e := dir[s*entrySize(version, dim) : (s+1)*entrySize(version, dim)]
		n64 := binary.LittleEndian.Uint64(e[0:8])
		if n64 < 1 || n64 > tuples {
			return nil, corruptf("shard %d: tuple count %d out of range", s, n64)
		}
		n := int(n64)
		sum += n64
		offs := [7]uint64{
			binary.LittleEndian.Uint64(e[8:16]),  // scores
			binary.LittleEndian.Uint64(e[16:24]), // vecs
			binary.LittleEndian.Uint64(e[24:32]), // ords
			binary.LittleEndian.Uint64(e[32:40]), // idOffs
			binary.LittleEndian.Uint64(e[40:48]), // idBytes
			binary.LittleEndian.Uint64(e[56:64]), // attrOffs
			binary.LittleEndian.Uint64(e[64:72]), // attrBytes
		}
		idBytesLen := binary.LittleEndian.Uint64(e[48:56])
		attrBytesLen := binary.LittleEndian.Uint64(e[72:80])
		if idBytesLen > math.MaxUint32 || attrBytesLen > math.MaxUint32 {
			return nil, corruptf("shard %d: byte region exceeds u32 offsets", s)
		}
		lens := [7]uint64{
			8 * n64,
			8 * n64 * uint64(dim),
			4 * n64,
			4 * (n64 + 1),
			idBytesLen,
			4 * (n64 + 1),
			attrBytesLen,
		}
		names := [7]string{"scores", "vecs", "ords", "idOffs", "idBytes", "attrOffs", "attrBytes"}
		var regions [7][]byte
		for r := 0; r < 7; r++ {
			if offs[r]%8 != 0 {
				return nil, corruptf("shard %d: %s region misaligned at %d", s, names[r], offs[r])
			}
			b, err := region(data, offs[r], lens[r], fmt.Sprintf("shard %d %s", s, names[r]))
			if err != nil {
				return nil, err
			}
			regions[r] = b
			spans = append(spans, span{offs[r], offs[r] + lens[r], fmt.Sprintf("shard %d %s", s, names[r])})
		}
		crc := crc32.New(castagnoli)
		for _, b := range regions {
			crc.Write(b)
		}
		if crc.Sum32() != binary.LittleEndian.Uint32(e[80:84]) {
			return nil, corruptf("shard %d: region checksum mismatch", s)
		}
		f.views[s] = shardData{
			n:         n,
			scores:    f64view(regions[0], n),
			vecs:      f64view(regions[1], n*dim),
			ords:      u32view(regions[2], n),
			idOffs:    u32view(regions[3], n+1),
			idBytes:   regions[4],
			attrOffs:  u32view(regions[5], n+1),
			attrBytes: regions[6],
		}
	}
	if sum != tuples {
		return nil, corruptf("shards hold %d tuples, header says %d", sum, tuples)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			return nil, corruptf("%s overlaps %s", spans[i].what, spans[i-1].what)
		}
	}
	if err := f.validateContent(); err != nil {
		return nil, err
	}
	return f, nil
}

// region bounds-checks [off, off+n) against data, overflow-safely.
func region(data []byte, off, n uint64, what string) ([]byte, error) {
	if off > uint64(len(data)) || n > uint64(len(data))-off {
		return nil, corruptf("%s [%d,+%d) outside the %d-byte file", what, off, n, len(data))
	}
	return data[off : off+n : off+n], nil
}

// f64view reinterprets an 8-aligned byte region as float64s.
func f64view(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// u32view reinterprets a 4-aligned byte region as uint32s.
func u32view(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// validateContent checks the per-tuple invariants the engine relies on:
// finite scores within (0, σ_max], finite vectors, canonical storage
// order, a consistent ordinal permutation across shards, monotone
// offset tables, and well-formed attribute blobs.
func (f *File) validateContent() error {
	seen := make([]bool, f.tuples)
	for s := range f.views {
		v := &f.views[s]
		for i := 0; i < v.n; i++ {
			sc := v.scores[i]
			if math.IsNaN(sc) || sc <= 0 || sc > f.maxScore {
				return corruptf("shard %d: tuple %d score %v outside (0, %v]", s, i, sc, f.maxScore)
			}
			ord := v.ords[i]
			if uint64(ord) >= uint64(f.tuples) {
				return corruptf("shard %d: tuple %d ordinal %d out of range", s, i, ord)
			}
			if seen[ord] {
				return corruptf("shard %d: duplicate ordinal %d", s, ord)
			}
			seen[ord] = true
			if i > 0 {
				prev := v.scores[i-1]
				if sc > prev || (sc == prev && ord <= v.ords[i-1]) {
					return corruptf("shard %d: tuples %d,%d break the (score desc, ordinal asc) order", s, i-1, i)
				}
			}
		}
		for _, x := range v.vecs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return corruptf("shard %d: non-finite vector component", s)
			}
		}
		if err := checkOffsets(v.idOffs, len(v.idBytes), s, "id"); err != nil {
			return err
		}
		if err := checkOffsets(v.attrOffs, len(v.attrBytes), s, "attr"); err != nil {
			return err
		}
		for i := 0; i < v.n; i++ {
			if err := checkAttrBlob(v.attrBytes[v.attrOffs[i]:v.attrOffs[i+1]], s, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkOffsets validates an (n+1)-entry offset table: starts at 0,
// non-decreasing, ends exactly at the byte region's length.
func checkOffsets(offs []uint32, size int, shard int, what string) error {
	if offs[0] != 0 {
		return corruptf("shard %d: %s offsets start at %d", shard, what, offs[0])
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return corruptf("shard %d: %s offsets decrease at %d", shard, what, i)
		}
	}
	if int(offs[len(offs)-1]) != size {
		return corruptf("shard %d: %s offsets end at %d, region is %d bytes", shard, what, offs[len(offs)-1], size)
	}
	return nil
}

// checkAttrBlob validates one tuple's attribute encoding without
// materializing it.
func checkAttrBlob(b []byte, shard, tuple int) error {
	if len(b) == 0 {
		return nil
	}
	if len(b) < 4 {
		return corruptf("shard %d: tuple %d attr blob truncated", shard, tuple)
	}
	count := binary.LittleEndian.Uint32(b)
	if count == 0 {
		return corruptf("shard %d: tuple %d non-empty attr blob with zero count", shard, tuple)
	}
	off := uint64(4)
	for j := uint32(0); j < count; j++ {
		for k := 0; k < 2; k++ {
			if off+4 > uint64(len(b)) {
				return corruptf("shard %d: tuple %d attr blob truncated", shard, tuple)
			}
			l := uint64(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			if l > uint64(len(b))-off {
				return corruptf("shard %d: tuple %d attr length overruns blob", shard, tuple)
			}
			off += l
		}
	}
	if off != uint64(len(b)) {
		return corruptf("shard %d: tuple %d attr blob has %d trailing bytes", shard, tuple, uint64(len(b))-off)
	}
	return nil
}
