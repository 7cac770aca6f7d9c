package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/relation"
)

// The row frame: the payload of a successful pull/next response. All
// integers are little-endian (the house convention of relfile and the
// spill segments); floats travel as their IEEE-754 bit patterns.
//
//	off  size  field
//	  0     4  magic "PRXR"
//	  4     1  version (2)
//	  5     1  flags: bit 0 = done (stream exhausted, no next needed)
//	  6     2  reserved, zero
//	  8     4  rows
//	 12     4  dim (coordinates per row; 0 when rows is 0)
//	 16     4  shards read: of the pulled set, how many the server's
//	           merge has read so far (the rest it has not needed)
//	 20     …  rows, each:
//	             8      Float64bits(key)
//	             8      ordinal in the parent relation
//	             8      Float64bits(score)
//	             8·dim  Float64bits(coordinate)
//	             4+n    id: length, bytes            ┐ the row's text,
//	             4      attr pairs, sorted by key,   │ at most
//	                    each 4+n key, 4+n value      ┘ maxRowText bytes
//	  …     4  CRC-32C (Castagnoli) of every payload byte before it
//
// The checksum is what turns a flipped byte into a retry: JSON rejected
// most corruption syntactically, a bare float payload would decode it.
// Version 1 had no shards-read field.
const (
	rowMagic     = "PRXR"
	rowVersion   = 2
	rowFlagDone  = 1
	rowHeaderLen = 20
	rowNumLen    = 8 + 8 + 8 // key, ordinal, score
	rowMinText   = 4 + 4     // empty id, no attrs
	rowTrailer   = 4

	// maxRowText caps one row's encoded id and attributes. It is what
	// lets a client bound the frame a batch can produce (pullFrameLimit)
	// instead of trusting a length prefix up to maxFrame.
	maxRowText = 64 << 10
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	le         = binary.LittleEndian
)

// pullFrameLimit is the largest payload a pull/next for batch rows of
// dim coordinates can legitimately be answered with.
func pullFrameLimit(batch, dim int) int {
	n := rowHeaderLen + rowTrailer + batch*(rowNumLen+8*dim+maxRowText)
	if n <= 0 || n > maxFrame {
		return maxFrame
	}
	return n
}

// appendRowFrame drains up to batch rows of src into one length-prefixed
// row frame, straight from the source with no intermediate rows. buf's
// storage is reused; it is returned (emptied) on error too, so the
// caller keeps its buffer. done reports that src is exhausted.
func appendRowFrame(buf []byte, src relation.KeyedSource, batch int) (frame []byte, done bool, err error) {
	dst := append(buf[:0], 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, rowMagic...)
	dst = append(dst, rowVersion, 0, 0, 0)
	dst = append(dst, make([]byte, rowHeaderLen-8)...) // rows, dim, shards read: patched below
	rows, dim := 0, 0
	var keys []string
	for rows < batch {
		t, key, ord, err := src.NextKeyed()
		if errors.Is(err, relation.ErrExhausted) {
			done = true
			break
		}
		if err != nil {
			return dst[:0], false, err
		}
		if rows == 0 {
			dim = len(t.Vec)
		} else if len(t.Vec) != dim {
			return dst[:0], false, fmt.Errorf("shardrpc: tuple %q has %d coordinates, its stream has %d", t.ID, len(t.Vec), dim)
		}
		dst = le.AppendUint64(dst, math.Float64bits(key))
		dst = le.AppendUint64(dst, uint64(ord))
		dst = le.AppendUint64(dst, math.Float64bits(t.Score))
		for _, c := range t.Vec {
			dst = le.AppendUint64(dst, math.Float64bits(c))
		}
		text := len(dst)
		dst = appendString(dst, t.ID)
		dst = le.AppendUint32(dst, uint32(len(t.Attrs)))
		if len(t.Attrs) > 0 {
			// Sorted, so every replica encodes a row to the same bytes.
			keys = keys[:0]
			for k := range t.Attrs {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				dst = appendString(appendString(dst, k), t.Attrs[k])
			}
		}
		if n := len(dst) - text; n > maxRowText {
			return dst[:0], false, fmt.Errorf("shardrpc: tuple %q carries %d bytes of id and attributes, over the %d-byte wire limit", t.ID, n, maxRowText)
		}
		if n := len(dst) - 4 + rowTrailer; n > maxFrame {
			return dst[:0], false, fmt.Errorf("shardrpc: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
		}
		rows++
	}
	payload := dst[4:]
	if done {
		payload[5] = rowFlagDone
	}
	le.PutUint32(payload[8:], uint32(rows))
	le.PutUint32(payload[12:], uint32(dim))
	le.PutUint32(payload[16:], uint32(shardsRead(src)))
	dst = le.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	binary.BigEndian.PutUint32(dst, uint32(len(dst)-4))
	return dst, done, nil
}

// shardsRead is how many shards of its set a stream has read: a merge's
// count of inputs read, or 1 for one shard's own stream.
func shardsRead(src relation.KeyedSource) int {
	if m, ok := src.(*relation.MergedSource); ok {
		return m.InputsRead()
	}
	return 1
}

func appendString(dst []byte, s string) []byte {
	return append(le.AppendUint32(dst, uint32(len(s))), s...)
}

// errRowFrame wraps every reason a row frame is refused.
var errRowFrame = errors.New("shardrpc: bad row frame")

// decodeRowFrame parses one row-frame payload. It verifies the checksum
// before trusting any field, sizes every allocation by bytes the payload
// actually holds (so a forged count cannot out-allocate the frame that
// carries it), and carves all coordinates of the batch from one slab.
// read is the frame's shards-read field.
func decodeRowFrame(p []byte) (rows []WireTuple, done bool, read int, err error) {
	bad := func(format string, args ...any) ([]WireTuple, bool, int, error) {
		return nil, false, 0, fmt.Errorf("%w: %s", errRowFrame, fmt.Sprintf(format, args...))
	}
	body, why := openFrame(p, rowMagic, rowVersion, rowHeaderLen+rowTrailer)
	if why != "" {
		return bad("%s", why)
	}
	if p[5]&^rowFlagDone != 0 || p[6] != 0 || p[7] != 0 {
		return bad("unknown flags %02x %02x %02x", p[5], p[6], p[7])
	}
	done = p[5]&rowFlagDone != 0
	n, dim, read := int(le.Uint32(p[8:])), int(le.Uint32(p[12:])), int(le.Uint32(p[16:]))
	body = body[rowHeaderLen:]
	// dim first, so the product below cannot overflow.
	if dim > len(body)/8 || n > len(body)/(rowNumLen+8*dim+rowMinText) {
		return bad("%d rows of %d coordinates cannot fit %d bytes", n, dim, len(body))
	}
	rows = make([]WireTuple, n)
	slab := make([]float64, n*dim)
	for i := range rows {
		w := &rows[i]
		if len(body) < rowNumLen+8*dim {
			return bad("row %d truncated", i)
		}
		w.Key = math.Float64frombits(le.Uint64(body))
		ord := le.Uint64(body[8:])
		if ord > math.MaxInt {
			return bad("row %d ordinal %d", i, ord)
		}
		w.Ord = int(ord)
		w.Score = math.Float64frombits(le.Uint64(body[16:]))
		body = body[rowNumLen:]
		w.Vec, slab = slab[:dim:dim], slab[dim:]
		for c := range w.Vec {
			w.Vec[c] = math.Float64frombits(le.Uint64(body[8*c:]))
		}
		body = body[8*dim:]
		var ok bool
		if w.ID, body, ok = cutString(body); !ok {
			return bad("row %d id truncated", i)
		}
		if len(body) < 4 {
			return bad("row %d attrs truncated", i)
		}
		pairs := int(le.Uint32(body))
		body = body[4:]
		if pairs > len(body)/8 {
			return bad("row %d claims %d attrs in %d bytes", i, pairs, len(body))
		}
		if pairs > 0 {
			w.Attrs = make(map[string]string, pairs)
		}
		for ; pairs > 0; pairs-- {
			var k, v string
			if k, body, ok = cutString(body); ok {
				v, body, ok = cutString(body)
			}
			if !ok {
				return bad("row %d attrs truncated", i)
			}
			w.Attrs[k] = v
		}
	}
	if len(body) != 0 {
		return bad("%d bytes after the last row", len(body))
	}
	return rows, done, read, nil
}

// openFrame checks a payload's least length, magic, version and
// checksum, and returns it without the checksum, or why it fails.
func openFrame(p []byte, magic string, version byte, least int) (body []byte, why string) {
	switch {
	case len(p) < least:
		return nil, fmt.Sprintf("%d bytes is shorter than an empty frame", len(p))
	case string(p[:4]) != magic:
		return nil, fmt.Sprintf("magic %q", p[:4])
	case p[4] != version:
		return nil, fmt.Sprintf("version %d, this build reads %d", p[4], version)
	}
	body = p[:len(p)-rowTrailer]
	if want, got := le.Uint32(p[len(body):]), crc32.Checksum(body, castagnoli); want != got {
		return nil, fmt.Sprintf("checksum %08x, payload sums to %08x", want, got)
	}
	return body, ""
}

// cutString splits a length-prefixed string off the front of b.
func cutString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 4 {
		return "", b, false
	}
	n := int(le.Uint32(b))
	if n > len(b)-4 {
		return "", b, false
	}
	return string(b[4 : 4+n]), b[4+n:], true
}
