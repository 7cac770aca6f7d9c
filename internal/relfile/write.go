package relfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"sort"

	"repro/internal/relation"
)

// Write serializes a partitioned relation to path in relfile format,
// atomically (write to a temp file in the same directory, then rename).
// It is a straight dump of each shard's Columns, which are already in the
// canonical score-access order — score descending, ties by ascending
// parent ordinal — so the loader can stream score access without
// sorting. No bounds are stored: the loader derives them from the
// columns. Any Sharded encodes, a loaded relfile included: re-encoding a
// version-2 file reproduces its bytes, and a version-1 file re-encodes
// as version 2.
func Write(path string, s *relation.Sharded) error {
	if s == nil {
		return fmt.Errorf("relfile: cannot write a nil relation")
	}
	parent := s.Relation()
	dim := parent.Dim()
	shards := s.NumShards()
	dirLen := uint64(shards) * uint64(entrySize(Version, dim))
	dataOff := align8(HeaderSize + dirLen)

	type encShard struct {
		regions [7][]byte
		offs    [7]uint64
		crc     uint32
		n       int
	}
	enc := make([]encShard, shards)
	off := dataOff
	for i := 0; i < shards; i++ {
		cols := s.ShardColumns(i)
		regions, err := encodeShard(cols, dim)
		if err != nil {
			return fmt.Errorf("relfile: relation %q shard %d: %w", parent.Name, i, err)
		}
		e := encShard{regions: regions, n: cols.Len()}
		for r := range e.regions {
			e.offs[r] = off
			off = align8(off + uint64(len(e.regions[r])))
		}
		crc := crc32.New(castagnoli)
		for _, b := range e.regions {
			crc.Write(b)
		}
		e.crc = crc.Sum32()
		enc[i] = e
	}

	dir := make([]byte, dirLen)
	for i, e := range enc {
		d := dir[i*entrySize(Version, dim):]
		binary.LittleEndian.PutUint64(d[0:8], uint64(e.n))
		for r := 0; r < 5; r++ {
			binary.LittleEndian.PutUint64(d[8+8*r:16+8*r], e.offs[r])
		}
		binary.LittleEndian.PutUint64(d[48:56], uint64(len(e.regions[4])))
		binary.LittleEndian.PutUint64(d[56:64], e.offs[5])
		binary.LittleEndian.PutUint64(d[64:72], e.offs[6])
		binary.LittleEndian.PutUint64(d[72:80], uint64(len(e.regions[6])))
		binary.LittleEndian.PutUint32(d[80:84], e.crc)
	}

	hdr := make([]byte, HeaderSize)
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(s.Strategy()))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(dim))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(shards))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(parent.Len()))
	binary.LittleEndian.PutUint64(hdr[32:40], math.Float64bits(parent.MaxScore))
	binary.LittleEndian.PutUint64(hdr[40:48], HeaderSize)
	binary.LittleEndian.PutUint64(hdr[48:56], dirLen)
	binary.LittleEndian.PutUint32(hdr[56:60], crc32.Checksum(dir, castagnoli))
	binary.LittleEndian.PutUint32(hdr[60:64], crc32.Checksum(hdr[0:60], castagnoli))

	tmp, err := createBeside(path)
	if err != nil {
		return fmt.Errorf("relfile: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriterSize(tmp, 1<<20)
	pos := uint64(0)
	emit := func(b []byte, at uint64) error {
		for pos < at {
			if err := w.WriteByte(0); err != nil {
				return err
			}
			pos++
		}
		n, err := w.Write(b)
		pos += uint64(n)
		return err
	}
	werr := emit(hdr, 0)
	if werr == nil {
		werr = emit(dir, HeaderSize)
	}
	for _, e := range enc {
		for r := range e.regions {
			if werr != nil {
				break
			}
			werr = emit(e.regions[r], e.offs[r])
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("relfile: writing %s: %w", path, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("relfile: %w", err)
	}
	return nil
}

// createBeside creates a new file with a unique name in path's directory,
// for Write to fill and rename into place. It asks for mode 0666 less the
// umask, as os.Create does, where os.CreateTemp's 0600 would leave the
// relation readable by its writer alone.
func createBeside(path string) (*os.File, error) {
	for try := 0; ; try++ {
		f, err := os.OpenFile(fmt.Sprintf("%s.tmp%d", path, rand.Uint32()), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
		if !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

// encodeShard builds one shard's seven region buffers, tuples in storage
// order.
func encodeShard(cols relation.Columns, dim int) ([7][]byte, error) {
	n := cols.Len()
	scores := make([]byte, 8*n)
	vecs := make([]byte, 8*n*dim)
	ordB := make([]byte, 4*n)
	idOffs := make([]byte, 4*(n+1))
	var idBytes, attrBytes []byte
	attrOffs := make([]byte, 4*(n+1))
	for i := 0; i < n; i++ {
		t := cols.Tuple(i)
		binary.LittleEndian.PutUint64(scores[8*i:], math.Float64bits(t.Score))
		for d := 0; d < dim; d++ {
			binary.LittleEndian.PutUint64(vecs[8*(i*dim+d):], math.Float64bits(t.Vec[d]))
		}
		binary.LittleEndian.PutUint32(ordB[4*i:], uint32(cols.Ordinal(i)))
		idBytes = append(idBytes, t.ID...)
		binary.LittleEndian.PutUint32(idOffs[4*(i+1):], uint32(len(idBytes)))
		attrBytes = appendAttrBlob(attrBytes, t.Attrs)
		binary.LittleEndian.PutUint32(attrOffs[4*(i+1):], uint32(len(attrBytes)))
	}
	if len(idBytes) > math.MaxUint32 || len(attrBytes) > math.MaxUint32 {
		return [7][]byte{}, fmt.Errorf("id/attr bytes exceed the 4 GiB per-shard limit")
	}
	return [7][]byte{scores, vecs, ordB, idOffs, idBytes, attrOffs, attrBytes}, nil
}

// appendAttrBlob appends one tuple's attribute encoding: nothing for an
// empty map, else a count followed by key-sorted length-prefixed pairs
// (sorted so the encoding — and every downstream checksum — is
// deterministic).
func appendAttrBlob(dst []byte, attrs map[string]string) []byte {
	if len(attrs) == 0 {
		return dst
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(k)))
		dst = append(dst, k...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(attrs[k])))
		dst = append(dst, attrs[k]...)
	}
	return dst
}
