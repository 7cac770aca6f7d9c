// Package shardrpc is the distributed transport of the system: a
// stdlib-only, server-streaming RPC over TCP that lets one proxserve
// process (a coordinator) read the shard streams of others (shard
// servers).
//
// The protocol is deliberately minimal. Every message is a frame — a
// 4-byte big-endian length followed by that many payload bytes — and
// every exchange is strictly one request frame answered by one response
// frame. Streaming is client-driven: the coordinator pulls batches of
// tuples with repeated pull/next requests rather than the server pushing
// an unbounded stream. That keeps a connection in a clean framing state
// between exchanges, so connections pool safely, an abandoned stream
// costs nothing (the next pull on the connection simply resets the
// server's stream cursor), and a retry after a broken connection resumes
// byte-identically by re-pulling at the recorded offset.
//
// Two payload encodings share the frame. The data plane is binary: a
// pull or next is one request frame (below) and the rows answering it
// one row frame (rowframe.go), both fixed-width little-endian with every
// float as its Float64bits, so the exact bit pattern survives the wire
// — which is what makes a coordinator's k-way merge byte-identical to a
// single-node run — and both closed by a CRC-32C, because a flipped byte
// inside a float is still a float. JSON is left to the control plane:
// hello, ping and every error response, small and rare; a pull or next
// sent as JSON is refused. A reader tells the encodings apart by the
// first payload byte ('{' or a frame's magic). There is no negotiation:
// every peer of a deployment runs identical binaries over identical
// data, and a coordinator that meets anything else fails loudly at its
// first pull. Each frame leaves in one write and is read greedily into
// a reused buffer, and the client runs the exchange on the caller's
// goroutine (source.go). Pull sizes ramp, so the wire carries what a
// merge consumes, not 512 rows per opened shard.
package shardrpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/api"
	"repro/internal/relation"
)

// Protocol verbs. Verbs other than VerbNext are stateless with respect
// to the connection; VerbNext continues the stream opened by the most
// recent VerbPull on the same connection.
const (
	// VerbHello asks the server to describe itself: which relations it
	// holds, how they are partitioned, which shards it owns, and each
	// owned shard's bounding metadata.
	VerbHello = "hello"
	// VerbPull opens the stream of a set of shards at an offset and
	// returns the first batch of (key, ordinal, tuple) rows in canonical
	// order: the merge of the set's shards.
	VerbPull = "pull"
	// VerbNext returns the next batch of the connection's current stream.
	VerbNext = "next"
	// VerbPing checks liveness.
	VerbPing = "ping"
)

// Request is the single client→server message shape; which fields matter
// depends on Verb.
type Request struct {
	Verb string `json:"verb"`
	// Pull fields. Shards names the set a pull streams, ascending.
	Relation string    `json:"relation,omitempty"`
	Shards   []int     `json:"shards,omitempty"`
	Access   string    `json:"access,omitempty"` // api.AccessDistance or api.AccessScore
	Query    []float64 `json:"query,omitempty"`  // distance access only
	Offset   int       `json:"offset,omitempty"` // rows to skip (resume point)
	// Batch caps the rows of a pull/next response; servers clamp it to
	// [1, MaxBatch].
	Batch int `json:"batch,omitempty"`
}

// Response is the JSON server→client message: the answer to hello and
// ping, and any verb's structured failure (the connection stays usable
// after one). A successful pull/next is answered by a row frame instead.
type Response struct {
	Err   *api.Error `json:"err,omitempty"`
	Hello *HelloInfo `json:"hello,omitempty"`
}

// HelloInfo describes one shard server.
type HelloInfo struct {
	// Server is a human-readable identity (host:port the server listens on).
	Server string `json:"server"`
	// Relations lists every relation the server can serve shards of.
	Relations []RelationInfo `json:"relations"`
}

// RelationInfo is one relation's partition layout as seen by one server.
// Coordinators cross-check these between peers: every peer must agree on
// MaxScore, Dim, Tuples, and Shards for a relation of the same name,
// since ordinal agreement (and hence merge correctness) follows from
// every server having partitioned identical data identically.
type RelationInfo struct {
	Name     string  `json:"name"`
	MaxScore float64 `json:"maxScore"`
	Dim      int     `json:"dim"`
	Tuples   int     `json:"tuples"`
	// Shards is the total shard count of the partition.
	Shards int `json:"shards"`
	// Owned lists the shards this server serves, with their bounds.
	Owned []OwnedShard `json:"owned"`
}

// OwnedShard is one shard a server serves.
type OwnedShard struct {
	Index  int                  `json:"index"`
	Bounds relation.ShardBounds `json:"bounds"`
}

// WireTuple is one row of a shard stream: the canonical merge key and
// parent ordinal alongside the tuple itself. Key and Ord come from the
// server's KeyedSource, so the coordinator merges on exactly the values
// a local merge would have computed.
type WireTuple struct {
	Key   float64
	Ord   int
	ID    string
	Score float64
	Vec   []float64
	Attrs map[string]string
}

// Tuple converts the wire row back into a relation tuple.
func (w WireTuple) Tuple() relation.Tuple {
	return relation.Tuple{ID: w.ID, Score: w.Score, Vec: w.Vec, Attrs: w.Attrs}
}

// MaxBatch caps rows per pull/next response; DefaultBatch is used when a
// request leaves Batch unset.
const (
	MaxBatch     = 8192
	DefaultBatch = 512
)

// maxFrame bounds a frame's payload (64 MiB): far above any legitimate
// batch, low enough that a corrupt or hostile length prefix cannot make
// a reader allocate unboundedly.
const maxFrame = 64 << 20

// appendJSONFrame appends v as one length-prefixed JSON frame.
func appendJSONFrame(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("shardrpc: encode frame: %w", err)
	}
	if len(body) > maxFrame {
		return dst, fmt.Errorf("shardrpc: frame of %d bytes exceeds the %d-byte limit", len(body), maxFrame)
	}
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(body))), body...), nil
}

// AppendFrame appends req as the one length-prefixed frame it travels
// in: a binary request frame for pull and next, JSON for every other
// verb.
func (req *Request) AppendFrame(dst []byte) ([]byte, error) {
	if req.Verb != VerbPull && req.Verb != VerbNext {
		return appendJSONFrame(dst, req)
	}
	verb := byte(slices.Index(reqVerbs[:], req.Verb))
	if req.Verb == VerbNext {
		req = &Request{Batch: req.Batch}
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, reqMagic...)
	dst = append(dst, reqVersion, verb, 0, 0)
	dst = le.AppendUint32(dst, uint32(req.Batch))
	dst = le.AppendUint64(dst, uint64(req.Offset))
	dst = le.AppendUint32(dst, uint32(len(req.Shards)))
	for _, s := range req.Shards {
		dst = le.AppendUint32(dst, uint32(s))
	}
	dst = appendString(appendString(dst, req.Access), req.Relation)
	dst = le.AppendUint32(dst, uint32(len(req.Query)))
	for _, c := range req.Query {
		dst = le.AppendUint64(dst, math.Float64bits(c))
	}
	dst = le.AppendUint32(dst, crc32.Checksum(dst[start+4:], castagnoli))
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// The request frame: the payload of every pull and next, little-endian
// like the row frame.
//
//	off  size  field
//	  0     4  magic "PRXQ"
//	  4     1  version (2)
//	  5     1  verb: 1 = pull, 2 = next
//	  6     2  reserved, zero
//	  8     4  batch (0: the server's DefaultBatch)
//	 12     8  offset (rows to skip; the resume point)
//	 20     4  shards: how many the set names (at least 1 for a pull)
//	 24   4·n  shard indices, strictly ascending
//	  …   4+n  access: length, bytes
//	  …   4+n  relation: length, bytes
//	  …     4  dim: query coordinates (0 for score access)
//	  …  8·dim Float64bits(coordinate)
//	  …     4  CRC-32C (Castagnoli) of every payload byte before it
//
// A pull streams the canonical merge of the shards it names; version 1
// named one shard where version 2 names a set. A next continues the
// connection's stream and carries only its batch: every other field is
// zero or empty.
const (
	reqMagic   = "PRXQ"
	reqVersion = 2
	reqFixed   = 20 // bytes before the shard count
)

var (
	reqVerbs        = [...]string{1: VerbPull, 2: VerbNext}     // by verb byte
	errRequestFrame = errors.New("shardrpc: bad request frame") // wraps every refusal
)

// decodeRequest parses one request payload; a JSON pull or next yields a
// CodeBadRequest *api.Error, any other error a payload that is no
// request. A frame's checksum is verified before any field is trusted,
// and what it accepts re-encodes to the same bytes.
func decodeRequest(p []byte) (req Request, err error) {
	if len(p) > 0 && p[0] == '{' {
		if err := json.Unmarshal(p, &req); err != nil {
			return req, fmt.Errorf("shardrpc: decode frame: %w", err)
		}
		if req.Verb == VerbPull || req.Verb == VerbNext {
			return req, api.Errorf(api.CodeBadRequest, "a %s travels as a binary request frame, not JSON", req.Verb)
		}
		return req, nil
	}
	bad := func(format string, args ...any) (Request, error) {
		return Request{}, fmt.Errorf("%w: %s", errRequestFrame, fmt.Sprintf(format, args...))
	}
	body, why := openFrame(p, reqMagic, reqVersion, reqFixed+4+4+4+4+rowTrailer)
	if why != "" {
		return bad("%s", why)
	}
	offset := le.Uint64(p[12:])
	if int(p[5]) >= len(reqVerbs) || p[5] == 0 || p[6] != 0 || p[7] != 0 || offset > math.MaxInt {
		return bad("verb %d, reserved %02x %02x, offset %d", p[5], p[6], p[7], offset)
	}
	req = Request{Verb: reqVerbs[p[5]], Batch: int(le.Uint32(p[8:])), Offset: int(offset)}
	body = body[reqFixed:]
	n := int(le.Uint32(body))
	if body = body[4:]; n > len(body)/4 {
		return bad("%d shards cannot fit %d bytes", n, len(body))
	}
	if n > 0 {
		req.Shards = make([]int, n)
		for i := range req.Shards {
			req.Shards[i] = int(le.Uint32(body[4*i:]))
			if i > 0 && req.Shards[i] <= req.Shards[i-1] {
				return bad("shard %d after %d: a set names each shard once, ascending", req.Shards[i], req.Shards[i-1])
			}
		}
	}
	ok := false
	if req.Access, body, ok = cutString(body[4*n:]); ok {
		req.Relation, body, ok = cutString(body)
	}
	if !ok || len(body) < 4 || len(body)-4 != 8*int(le.Uint32(body)) {
		return bad("strings or query truncated")
	}
	if body = body[4:]; len(body) > 0 {
		req.Query = make([]float64, len(body)/8)
		for i := range req.Query {
			req.Query[i] = math.Float64frombits(le.Uint64(body[8*i:]))
		}
	}
	if req.Verb == VerbNext && (req.Shards != nil || req.Offset != 0 || req.Access != "" || req.Relation != "" || req.Query != nil) {
		return bad("a next carries only its batch")
	}
	if req.Verb == VerbPull && req.Shards == nil {
		return bad("a pull names no shard")
	}
	return req, nil
}

// readPayload reads one frame into buf (from its start; nil is fine) and
// returns its payload, moved to buf's start. It reads greedily, as much
// as the buffer holds: each side sends one frame and then waits for the
// other's, so a frame arrives in one read once the buffer has grown to
// it, and bytes past the frame are a protocol error. A length prefix
// over limit is refused before anything is allocated for it. Past buf's
// capacity the buffer grows only as bytes arrive (never by more than it
// already holds, 64 KiB at first), so a prefix that lies costs its
// sender real bytes, not the reader memory.
func readPayload(r io.Reader, limit int, buf []byte) ([]byte, error) {
	buf = buf[:cap(buf)]
	have, end := 0, 4 // end: the frame's length, prefix included, once read
	for have < end {
		if have == len(buf) {
			buf = slices.Grow(buf[:have], min(max(have, 64<<10), end-have))
			buf = buf[:cap(buf)]
		}
		n, err := r.Read(buf[have:])
		if have += n; have >= 4 {
			if end = 4 + int(binary.BigEndian.Uint32(buf)); end-4 > limit {
				return nil, fmt.Errorf("shardrpc: frame of %d bytes exceeds the %d-byte limit", end-4, limit)
			}
		}
		if have > end {
			return nil, fmt.Errorf("shardrpc: %d bytes past the end of a frame", have-end)
		}
		if err != nil && have < end {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf[:copy(buf, buf[4:end])], nil
}
