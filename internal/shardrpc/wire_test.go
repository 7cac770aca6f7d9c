package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// countingConn counts the writes made on one end of a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestExchangeOneWritePerFrame pins the syscall shape of an exchange:
// hello, pull and next each cost exactly one write on the client and one
// on the server, and a reader refuses bytes past the frame it reads.
func TestExchangeOneWritePerFrame(t *testing.T) {
	rel := testRelation(t, "pts", 7, 90, 2)
	sharded, err := relation.Partition(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	cli, srvEnd := net.Pipe()
	client, server := &countingConn{Conn: cli}, &countingConn{Conn: srvEnd}
	srv := NewServer(&testBackend{
		name: "pipe",
		rels: map[string]*relation.Sharded{"pts": sharded},
		owns: func(int) bool { return true },
	})
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handle(server)
	}()
	t.Cleanup(func() {
		client.Close()
		<-served
	})
	peer := NewPeer("pipe")
	peer.put(client)

	step := func(verb string, exchange func()) {
		t.Helper()
		cw, sw, pulls := client.writes.Load(), server.writes.Load(), peer.Pulls.Load()
		exchange()
		if got := peer.Pulls.Load() - pulls; got != 1 {
			t.Fatalf("%s: %d exchanges, want 1", verb, got)
		}
		if c, s := client.writes.Load()-cw, server.writes.Load()-sw; c != 1 || s != 1 {
			t.Fatalf("%s: %d client and %d server writes, want one each", verb, c, s)
		}
	}
	fleet := &Fleet{peers: []*Peer{peer}}
	var remotes map[string]*RemoteRelation
	step(VerbHello, func() {
		if remotes, err = fleet.Discover(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	src, err := OpenRemoteShard(context.Background(), rel, remotes["pts"], 0, api.AccessDistance, []float64{2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := func() {
		if _, _, _, err := src.NextKeyed(); err != nil {
			t.Fatal(err)
		}
	}
	step(VerbPull, next)
	for range 3 {
		next() // the rest of the first batch: no exchange
	}
	step(VerbNext, next)
	if peer.Retries.Load() != 0 || peer.Reconnects.Load() != 0 {
		t.Fatalf("%d retries, %d reconnects over one pipe", peer.Retries.Load(), peer.Reconnects.Load())
	}

	frame, err := (&Request{Verb: VerbNext, Batch: 1}).AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readPayload(bytes.NewReader(append(frame, 0)), maxFrame, nil); err == nil {
		t.Fatal("a byte past the frame was read without complaint")
	}
	if _, err := readPayload(bytes.NewReader(frame), maxFrame, nil); err != nil {
		t.Fatal(err)
	}
}

// docRequests are the request frames docs/API.md documents.
var docRequests = []Request{
	{Verb: VerbPull, Relation: "hotels", Shards: []int{0}, Access: api.AccessScore, Batch: 16},
	{Verb: VerbPull, Relation: "hotels", Shards: []int{0}, Access: api.AccessDistance, Query: []float64{0.1, 0}, Batch: 1},
	{Verb: VerbNext, Batch: 2},
}

// setRequests name sets of several shards, as a coordinator's pull of one
// peer's shards does.
var setRequests = []Request{
	{Verb: VerbPull, Relation: "pts", Shards: []int{0, 3, 6, 9}, Access: api.AccessDistance, Query: []float64{0.5, -2}, Offset: 40, Batch: 64},
	{Verb: VerbPull, Relation: "pts", Shards: []int{1, 2, 70000}, Access: api.AccessScore, Batch: 512},
}

// TestRequestFrameShardSet: a pull's shard set survives its frame in
// order, and a set that repeats or reorders a shard, a pull that names
// none, a next that names any, a count the payload cannot hold and a
// version-1 frame are each refused as a bad request frame.
func TestRequestFrameShardSet(t *testing.T) {
	for _, req := range setRequests {
		frame, err := req.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Shards, req.Shards) || got.Offset != req.Offset || got.Batch != req.Batch || got.Relation != req.Relation {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}
	}
	encode := func(req Request) []byte {
		frame, err := req.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:]
	}
	pull := setRequests[0]
	with := func(shards ...int) Request {
		r := pull
		r.Shards = shards
		return r
	}
	cases := map[string][]byte{
		"repeated":     encode(with(0, 3, 3, 9)),
		"out of order": encode(with(0, 6, 3, 9)),
		"descending":   encode(with(9, 6)),
		"no shard":     encode(with()),
		"next with shards": func() []byte {
			p := encode(Request{Verb: VerbNext, Batch: 2})
			p = append(p[:reqFixed:reqFixed], append(le.AppendUint32(le.AppendUint32(nil, 1), 4), p[reqFixed+4:]...)...)
			return reseal(p)
		}(),
		"count overflow": func() []byte {
			p := encode(pull)
			le.PutUint32(p[reqFixed:], math.MaxUint32)
			return reseal(p)
		}(),
		"version 1": func() []byte {
			p := encode(pull)
			p[4] = reqVersion - 1
			return reseal(p)
		}(),
	}
	for name, p := range cases {
		if req, err := decodeRequest(p); !errors.Is(err, errRequestFrame) {
			t.Errorf("%s: decoded %+v, err %v; want errRequestFrame", name, req, err)
		}
	}
}

// TestRequestFrameForgedDimAllocatesNothing: a query dimension of 4
// billion over a 70-byte payload is refused before anything is sized by
// it (see TestRowFrameForgedCountAllocatesNothing for the measurement).
func TestRequestFrameForgedDimAllocatesNothing(t *testing.T) {
	frame, err := docRequests[1].AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := frame[4:]
	le.PutUint32(p[len(p)-rowTrailer-8*2-4:], math.MaxUint32)
	reseal(p)
	least := uint64(math.MaxUint64)
	for attempt := 0; attempt < 5 && least > 4<<10; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeRequest(p)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errRequestFrame) {
			t.Fatalf("forged dim: err = %v", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(p), least)
	}
}

// FuzzRequestFrameDecode: no payload panics the request decoder, every
// refusal of a binary payload is an errRequestFrame, a decoded query is
// no longer than the bytes that carried it, and every accepted request
// frame re-encodes to the same bytes (a JSON request, to a frame that
// decodes and re-encodes to itself).
func FuzzRequestFrameDecode(f *testing.F) {
	for _, req := range append(docRequests, setRequests...) {
		frame, err := req.AppendFrame(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
		f.Add(faultinject.Corrupt(frame)[4:])
	}
	f.Add([]byte(`{"verb":"hello"}`))
	f.Add([]byte(`{"verb":"pull","relation":"hotels","query":[0.1,0]}`))
	f.Fuzz(func(t *testing.T, p []byte) {
		binary := len(p) == 0 || p[0] != '{'
		req, err := decodeRequest(p)
		if err != nil {
			if binary && !errors.Is(err, errRequestFrame) {
				t.Fatalf("refusal is not an errRequestFrame: %v", err)
			}
			return
		}
		if 8*len(req.Query) > len(p) {
			t.Fatalf("%d query coordinates decoded out of %d bytes", len(req.Query), len(p))
		}
		again, err := req.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !binary {
			req, err = decodeRequest(again[4:])
			if err != nil {
				t.Fatalf("re-encoded %q does not decode: %v", again[4:], err)
			}
			if p, err = req.AppendFrame(nil); err != nil {
				t.Fatal(err)
			}
			p = p[4:]
		}
		if !bytes.Equal(again[4:], p) {
			t.Fatalf("accepted payload does not re-encode to itself:\n got %x\nwant %x", again[4:], p)
		}
	})
}
