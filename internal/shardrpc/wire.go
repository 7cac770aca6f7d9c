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
// Two payload encodings share the frame. Requests, hello, ping and every
// error response are JSON: control-plane messages, small and rare. The
// rows of a successful pull/next travel as one binary row frame
// (rowframe.go): fixed-width Float64bits for every key, score and
// coordinate, so the exact bit pattern survives the wire — which is what
// makes a coordinator's k-way merge byte-identical to a single-node run —
// closed by a CRC-32C, because a flipped byte inside a float is still a
// float. A reader tells the two apart by the first payload byte ('{' or
// the row magic). There is no negotiation: every peer of a deployment
// runs identical binaries over identical data, and a coordinator that
// meets anything else fails loudly at its first pull. Pull sizes ramp
// (source.go), so the wire carries what a merge consumes, not 512 rows
// per opened shard.
package shardrpc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/api"
	"repro/internal/relation"
)

// Protocol verbs. Verbs other than VerbNext are stateless with respect
// to the connection; VerbNext continues the shard stream opened by the
// most recent VerbPull on the same connection.
const (
	// VerbHello asks the server to describe itself: which relations it
	// holds, how they are partitioned, which shards it owns, and each
	// owned shard's bounding metadata.
	VerbHello = "hello"
	// VerbPull opens a shard stream at an offset and returns the first
	// batch of (key, ordinal, tuple) rows in canonical order.
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
	// Pull fields.
	Relation string    `json:"relation,omitempty"`
	Shard    int       `json:"shard,omitempty"`
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

// writeFrame writes one length-prefixed JSON frame.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shardrpc: encode frame: %w", err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("shardrpc: frame of %d bytes exceeds the %d-byte limit", len(body), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readPayload reads one frame's payload into buf (from its start; nil is
// fine), refusing a length prefix over limit before allocating anything
// for it. Past buf's capacity the buffer grows only as bytes arrive
// (never by more than it already holds, 64 KiB at first), so a prefix
// that lies costs its sender real bytes, not the reader memory.
func readPayload(r io.Reader, limit int, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > limit {
		return nil, fmt.Errorf("shardrpc: frame of %d bytes exceeds the %d-byte limit", n, limit)
	}
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, chunk)[:len(buf)+chunk]
		if _, err := io.ReadFull(r, buf[len(buf)-chunk:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readFrame reads one length-prefixed JSON frame into v.
func readFrame(r io.Reader, v any) error {
	body, err := readPayload(r, maxFrame, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("shardrpc: decode frame: %w", err)
	}
	return nil
}
