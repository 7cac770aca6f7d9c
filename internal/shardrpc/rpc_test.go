package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/vec"
)

// testRelation builds a relation engineered for ties: discrete scores
// and grid-snapped vectors, so the ordinal tie-break is exercised on the
// wire exactly as it is locally.
func testRelation(t testing.TB, name string, seed int64, size, dim int) *relation.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for c := range v {
			v[c] = float64(r.Intn(6))
		}
		tuples[i] = relation.Tuple{
			ID:    fmt.Sprintf("%s%03d", name, i),
			Score: 0.25 + 0.25*float64(r.Intn(3)),
			Vec:   v,
		}
	}
	rel, err := relation.New(name, 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// testBackend serves one sharded relation with an ownership predicate.
type testBackend struct {
	name string
	rels map[string]*relation.Sharded
	owns func(shard int) bool
}

func (b *testBackend) Hello() HelloInfo {
	h := HelloInfo{Server: b.name}
	for name, s := range b.rels {
		rel := s.Relation()
		ri := RelationInfo{
			Name:     name,
			MaxScore: rel.MaxScore,
			Dim:      rel.Dim(),
			Tuples:   rel.Len(),
			Shards:   s.NumShards(),
		}
		for i := 0; i < s.NumShards(); i++ {
			if b.owns(i) {
				ri.Owned = append(ri.Owned, OwnedShard{Index: i, Bounds: s.ShardBounds(i)})
			}
		}
		h.Relations = append(h.Relations, ri)
	}
	return h
}

func (b *testBackend) OpenShards(relName string, shards []int, access string, query []float64) (relation.KeyedSource, error) {
	s, ok := b.rels[relName]
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "relation %q is not registered", relName)
	}
	for _, shard := range shards {
		if shard < 0 || shard >= s.NumShards() || !b.owns(shard) {
			return nil, api.Errorf(api.CodeNotFound, "shard %d of %q is not served here", shard, relName)
		}
	}
	kind, err := kindOf(access)
	if err != nil {
		return nil, api.Errorf(api.CodeBadRequest, "%v", err)
	}
	return s.OpenShardSet(shards, kind, query)
}

// startServer runs a server over backend on a loopback port.
func startServer(t *testing.T, backend Backend) (addr string) {
	t.Helper()
	srv := NewServer(backend)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return bound.String()
}

// shardedFixture partitions a tie-heavy relation and serves it from n
// servers, server i owning shard s when s%n == i, returning the fleet
// and the discovered remote view.
func shardedFixture(t *testing.T, shards, servers int) (*relation.Sharded, *Fleet, *RemoteRelation) {
	t.Helper()
	return serveSharded(t, testRelation(t, "pts", 7, 90, 2), shards, servers)
}

// serveSharded is shardedFixture over a relation of the caller's, which
// must be named "pts".
func serveSharded(t *testing.T, rel *relation.Relation, shards, servers int) (*relation.Sharded, *Fleet, *RemoteRelation) {
	t.Helper()
	sharded, err := relation.Partition(rel, shards)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, servers)
	for i := 0; i < servers; i++ {
		i := i
		addrs[i] = startServer(t, &testBackend{
			name: fmt.Sprintf("srv%d", i),
			rels: map[string]*relation.Sharded{"pts": sharded},
			owns: func(s int) bool { return s%servers == i },
		})
	}
	fleet := NewFleet(addrs)
	t.Cleanup(fleet.Close)
	remotes, err := fleet.Discover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := remotes["pts"]
	if !ok {
		t.Fatalf("discover returned %v, want relation pts", remotes)
	}
	return sharded, fleet, rr
}

// TestFrameRoundTrip: a pull and a next survive their request frame bit
// for bit, and a hello its JSON frame; a hostile length prefix is
// refused, not allocated.
func TestFrameRoundTrip(t *testing.T) {
	in := Request{Verb: VerbPull, Relation: "r", Shards: []int{3}, Access: api.AccessDistance,
		Query: []float64{1.5, math.Nextafter(2, 3)}, Offset: 17, Batch: 64}
	next := in
	next.Verb = VerbNext
	hello := Request{Verb: VerbHello}
	for _, req := range []*Request{&in, &next, &hello} {
		frame, err := req.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := readPayload(bytes.NewReader(frame), maxFrame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if binary := body[0] != '{'; binary != (req != &hello) {
			t.Fatalf("%s: payload starts %q", req.Verb, body[:4])
		}
		out, err := decodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		want := *req
		if req == &next {
			want = Request{Verb: VerbNext, Batch: in.Batch} // a next carries only its batch
		}
		if out.Verb != want.Verb || !slices.Equal(out.Shards, want.Shards) || out.Offset != want.Offset ||
			out.Batch != want.Batch || out.Relation != want.Relation || out.Access != want.Access ||
			len(out.Query) != len(want.Query) {
			t.Fatalf("frame round trip: got %+v, want %+v", out, want)
		}
		if len(out.Query) > 0 && math.Float64bits(out.Query[1]) != math.Float64bits(in.Query[1]) {
			t.Fatalf("query bits changed: %v", out.Query)
		}
	}
	// A hostile length prefix must be refused, not allocated.
	if _, err := readPayload(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), maxFrame, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// pull and next are binary or nothing.
	for _, verb := range []string{VerbPull, VerbNext} {
		_, err := decodeRequest([]byte(`{"verb":"` + verb + `","relation":"r","batch":4}`))
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
			t.Fatalf("JSON %s: err = %v, want CodeBadRequest", verb, err)
		}
	}
}

// drainKeyed pulls src dry, recording the exact bits of every row.
type keyedRow struct {
	id       string
	key, ord uint64
	score    uint64
	vec      []uint64
}

func drainKeyed(t *testing.T, src relation.KeyedSource, max int) []keyedRow {
	t.Helper()
	var rows []keyedRow
	for len(rows) < max {
		tu, key, ord, err := src.NextKeyed()
		if errors.Is(err, relation.ErrExhausted) {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		row := keyedRow{id: tu.ID, key: math.Float64bits(key), ord: uint64(ord), score: math.Float64bits(tu.Score)}
		for _, c := range tu.Vec {
			row.vec = append(row.vec, math.Float64bits(c))
		}
		rows = append(rows, row)
	}
	return rows
}

func rowsEqual(a, b []keyedRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.id != y.id || x.key != y.key || x.ord != y.ord || x.score != y.score || len(x.vec) != len(y.vec) {
			return false
		}
		for j := range x.vec {
			if x.vec[j] != y.vec[j] {
				return false
			}
		}
	}
	return true
}

// TestRemoteStreamByteIdentity: every shard streamed over the wire is
// bit-for-bit the local shard stream, for both access kinds.
func TestRemoteStreamByteIdentity(t *testing.T) {
	sharded, _, rr := shardedFixture(t, 4, 2)
	stub, err := rr.Stub()
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{2, 2}
	for _, access := range []string{api.AccessDistance, api.AccessScore} {
		kind, _ := kindOf(access)
		for s := 0; s < sharded.NumShards(); s++ {
			local, err := sharded.ShardSource(s, kind, q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := OpenRemoteShard(context.Background(), stub, rr, s, access, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			want := drainKeyed(t, local.(relation.KeyedSource), 1<<20)
			got := drainKeyed(t, remote, 1<<20)
			if !rowsEqual(got, want) {
				t.Fatalf("%s shard %d: remote stream differs from local (%d vs %d rows)", access, s, len(got), len(want))
			}
			if !remote.Exhausted() {
				t.Fatalf("%s shard %d: remote source not marked exhausted after drain", access, s)
			}
		}
	}
}

// TestAbandonedStreamsRecycle: what a coordinator does all day — open a
// shard's stream, take a few rows, hand the connection back with the
// server's stream still open — with the server releasing each abandoned
// stream's scratch at the next pull and the client reading every response
// into a recycled payload buffer. Four goroutines over shared peers; every
// prefix is bit-for-bit the local stream's, and a frame shorter than the
// one its buffer last held carries nothing of it. Run under -race.
func TestAbandonedStreamsRecycle(t *testing.T) {
	sharded, _, rr := shardedFixture(t, 4, 2)
	stub, err := rr.Stub()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 40; round++ {
				q := []float64{10 * r.Float64(), 10 * r.Float64()}
				shard, depth, batch := r.Intn(sharded.NumShards()), 1+r.Intn(30), []int{0, 3, 40}[r.Intn(3)]
				local, err := sharded.ShardSource(shard, relation.DistanceAccess, q, nil, true)
				if err != nil {
					t.Error(err)
					return
				}
				remote, err := OpenRemoteShard(context.Background(), stub, rr, shard, api.AccessDistance, q, batch)
				if err != nil {
					t.Error(err)
					return
				}
				want := drainKeyed(t, local.(relation.KeyedSource), depth)
				got := drainKeyed(t, remote, depth)
				remote.Close()
				if !rowsEqual(got, want) {
					t.Errorf("goroutine %d round %d: shard %d, %d rows at batch %d differ from the local stream", g, round, shard, depth, batch)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// rampExchanges is how many exchanges drain rows rows when the first asks
// for start and each later one for twice the last, up to DefaultBatch.
// The last exchange is the one that reports done: an exactly-full final
// batch is followed by one more, empty, exchange.
func rampExchanges(rows, start int) int {
	n := 0
	for batch := start; ; batch = min(batch*rampGrowth, DefaultBatch) {
		n++
		if rows < batch {
			return n
		}
		rows -= batch
	}
}

// TestRampedStreamByteIdentity pins the ramp: a deep stream opened with
// batch 0 is bit-for-bit its local twin whatever the start size, takes
// exactly the exchanges the doubling schedule predicts, and a connection
// reset in the middle of the ramp (the 3rd exchange dies half-written)
// resumes at the same offset with the same batch — same rows, one retry,
// one exchange more. A positive batch keeps the fixed size.
func TestRampedStreamByteIdentity(t *testing.T) {
	rel := testRelation(t, "pts", 7, 3000, 2)
	sharded, err := relation.Partition(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{2, 2}
	local, err := sharded.ShardSource(0, relation.DistanceAccess, q, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	want := drainKeyed(t, local.(relation.KeyedSource), 1<<20)

	for _, tc := range []struct {
		name         string
		batch, start int // OpenRemoteShard's batch; the ramp's first size (0: as opened)
	}{
		{"start1", 0, 1},
		{"start16", 0, 0},
		{"fixed512", 512, 0},
	} {
		for _, reset := range []bool{false, true} {
			name := tc.name
			if reset {
				name += "/reset"
			}
			t.Run(name, func(t *testing.T) {
				pinJitter(t, func(time.Duration) time.Duration { return 0 })
				inj := faultinject.New(&faultinject.Rule{Verb: VerbNext, Action: faultinject.ActionReset, Nth: 2})
				inj.SetEnabled(reset)
				addr := startFaultedServer(t, &testBackend{
					name: "ramp",
					rels: map[string]*relation.Sharded{"pts": sharded},
					owns: func(int) bool { return true },
				}, inj)
				fleet := NewFleet([]string{addr})
				t.Cleanup(fleet.Close)
				remotes, err := fleet.Discover(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				peer := fleet.Peers()[0]
				pulls0 := peer.Pulls.Load()

				src, err := OpenRemoteShard(context.Background(), rel, remotes["pts"], 0, api.AccessDistance, q, tc.batch)
				if err != nil {
					t.Fatal(err)
				}
				if tc.start > 0 {
					src.batch = tc.start
				}
				first := src.batch
				if wantRamp := tc.batch <= 0; src.ramp != wantRamp {
					t.Fatalf("batch %d opened with ramp=%v", tc.batch, src.ramp)
				}
				if got := drainKeyed(t, src, 1<<20); !rowsEqual(got, want) {
					t.Fatalf("remote stream differs from local (%d vs %d rows)", len(got), len(want))
				}

				exchanges := (len(want) + first) / first // fixed size, done on a short batch
				if src.ramp {
					exchanges = rampExchanges(len(want), first)
				}
				retries := int64(0)
				if reset {
					retries = 1
				}
				if got := peer.Pulls.Load() - pulls0; got != int64(exchanges)+retries {
					t.Fatalf("drained %d rows in %d exchanges, want %d + %d retried", len(want), got, exchanges, retries)
				}
				if got := peer.Retries.Load(); got != retries {
					t.Fatalf("%d retries, want %d", got, retries)
				}
				if got := inj.Fired(); got != retries {
					t.Fatalf("injector fired %d times, want %d", got, retries)
				}
				if got := peer.Rows.Load(); got != int64(len(want)) {
					t.Fatalf("peer counted %d rows received, stream has %d", got, len(want))
				}
				if src.Consumed() != len(want) {
					t.Fatalf("source consumed %d rows, stream has %d", src.Consumed(), len(want))
				}
			})
		}
	}
}

// TestRemoteMergeByteIdentity: the k-way merge over remote shard streams
// is bit-for-bit the merge over local ones, and bounded (latent) priming
// changes nothing.
func TestRemoteMergeByteIdentity(t *testing.T) {
	sharded, _, rr := shardedFixture(t, 5, 2)
	stub, err := rr.Stub()
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, 0.5}
	for _, access := range []string{api.AccessDistance, api.AccessScore} {
		kind, _ := kindOf(access)
		locals := make([]relation.Source, sharded.NumShards())
		for s := range locals {
			src, err := sharded.ShardSource(s, kind, q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			locals[s] = src
		}
		localMerged, err := sharded.Merge(locals)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]relation.KeyedSource, sharded.NumShards())
		for s := range inputs {
			rs, err := OpenRemoteShard(context.Background(), stub, rr, s, access, q, 11)
			if err != nil {
				t.Fatal(err)
			}
			inputs[s] = rs
		}
		remoteMerged, err := relation.NewMergedSource(stub, kind, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			wt, werr := localMerged.Next()
			gt, gerr := remoteMerged.Next()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s row %d: local err %v, remote err %v", access, i, werr, gerr)
			}
			if werr != nil {
				break
			}
			if wt.ID != gt.ID || math.Float64bits(wt.Score) != math.Float64bits(gt.Score) {
				t.Fatalf("%s row %d: local %q/%x, remote %q/%x", access, i,
					wt.ID, math.Float64bits(wt.Score), gt.ID, math.Float64bits(gt.Score))
			}
		}
	}
}

// TestSetStreamMergeByteIdentity: under ring ownership of 12 shards on 3
// peers, discovery groups the shards that share s % 3, and one stream
// per group, merged, is the local relation's merge row for row — key
// bits and ordinals included — under both access kinds. A corner prefix
// leaves the far shards of every group unread, on the server too.
func TestSetStreamMergeByteIdentity(t *testing.T) {
	sharded, _, rr := serveSharded(t, uniformRelation(t, 19, 2400, 2), 12, 3)
	if want := [][]int{{0, 3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11}}; !reflect.DeepEqual(rr.Groups, want) {
		t.Fatalf("groups %v, want %v", rr.Groups, want)
	}
	stub, err := rr.Stub()
	if err != nil {
		t.Fatal(err)
	}
	open := func(access string, q []float64) (*relation.MergedSource, []*RemoteSource) {
		t.Helper()
		kind, _ := kindOf(access)
		inputs := make([]relation.KeyedSource, len(rr.Groups))
		remotes := make([]*RemoteSource, len(rr.Groups))
		for g, shards := range rr.Groups {
			rs, err := OpenRemoteShards(context.Background(), stub, rr, shards, access, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			inputs[g], remotes[g] = rs, rs
		}
		merged, err := relation.NewMergedSource(stub, kind, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return merged, remotes
	}
	for _, access := range []string{api.AccessDistance, api.AccessScore} {
		for _, q := range [][]float64{{0.5, 0.5}, {0.03, 0.97}} {
			kind, _ := kindOf(access)
			local, err := relation.OpenSource(sharded, kind, q)
			if err != nil {
				t.Fatal(err)
			}
			remote, remotes := open(access, q)
			want, got := drainKeyed(t, local.(relation.KeyedSource), 1<<20), drainKeyed(t, remote, 1<<20)
			if !rowsEqual(got, want) {
				t.Fatalf("%s %v: %d rows over set streams differ from the local merge's %d", access, q, len(got), len(want))
			}
			for _, rs := range remotes {
				if rs.ShardsRead() != len(rs.Shards()) {
					t.Fatalf("%s %v: drained set %v read %d shards", access, q, rs.Shards(), rs.ShardsRead())
				}
			}
		}
	}
	merged, remotes := open(api.AccessDistance, []float64{0.03, 0.03})
	for i := 0; i < 4; i++ {
		if _, err := merged.Next(); err != nil {
			t.Fatal(err)
		}
	}
	read := 0
	for _, rs := range remotes {
		read += rs.ShardsRead()
		rs.Close()
	}
	if read == 0 || read > 4 {
		t.Fatalf("a corner prefix read %d of 12 shards over its set streams, want 1 to 4", read)
	}
}

// uniformRelation fills the unit hypercube of dimension dim evenly: the
// data a grid partition cuts into boxes of about equal volume.
func uniformRelation(t testing.TB, seed int64, size, dim int) *relation.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for c := range v {
			v[c] = r.Float64()
		}
		tuples[i] = relation.Tuple{ID: fmt.Sprintf("u%04d", i), Score: 0.05 + 0.95*r.Float64(), Vec: v}
	}
	rel, err := relation.New("pts", 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestRemoteMergePrunesFarShards: grid shards are boxes and advertise
// them, so a short prefix drawn from a corner of uniform data opens the
// box holding the corner and at most one neighbour — 2 of 12 streams, at
// dim 2 and at the benchmark's dim 4 (6 of 12 when shards were runs of a
// cell ordering bounded by balls).
func TestRemoteMergePrunesFarShards(t *testing.T) {
	for _, dim := range []int{2, 4} {
		sharded, _, rr := serveSharded(t, uniformRelation(t, 19, 2400, dim), 12, 3)
		stub, err := rr.Stub()
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, dim)
		for c := range q {
			q[c] = 0.03
		}
		inputs := make([]relation.KeyedSource, sharded.NumShards())
		remotes := make([]*RemoteSource, sharded.NumShards())
		for s := range inputs {
			rs, err := OpenRemoteShard(context.Background(), stub, rr, s, api.AccessDistance, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			inputs[s], remotes[s] = rs, rs
		}
		merged, err := relation.NewMergedSource(stub, relation.DistanceAccess, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := merged.Next(); err != nil {
				t.Fatal(err)
			}
		}
		opened := 0
		for _, rs := range remotes {
			if rs.Opened() {
				opened++
			}
			rs.Close()
		}
		if opened > 2 {
			t.Fatalf("dim %d: a corner prefix opened %d of %d shard streams, want at most 2", dim, opened, len(remotes))
		}
	}
}

// TestRemoteSourceResume: killing the connection mid-stream must be
// invisible — the source redials and re-pulls at its offset, and the
// delivered rows stay bit-for-bit identical.
func TestRemoteSourceResume(t *testing.T) {
	sharded, _, rr := shardedFixture(t, 3, 1)
	stub, err := rr.Stub()
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{1, 1}
	local, err := sharded.ShardSource(0, relation.DistanceAccess, q, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	want := drainKeyed(t, local.(relation.KeyedSource), 1<<20)

	remote, err := OpenRemoteShard(context.Background(), stub, rr, 0, api.AccessDistance, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []keyedRow
	for i := 0; ; i++ {
		tu, key, ord, err := remote.NextKeyed()
		if errors.Is(err, relation.ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		row := keyedRow{id: tu.ID, key: math.Float64bits(key), ord: uint64(ord), score: math.Float64bits(tu.Score)}
		got = append(got, row)
		// Sever the live connection every few rows, in the middle of a
		// buffered batch and at batch edges alike.
		if i%5 == 2 && remote.conn != nil {
			remote.conn.Close()
		}
	}
	for i := range got {
		got[i].vec = want[i].vec // vec not tracked above; compare the rest
	}
	if !rowsEqual(got, want) {
		t.Fatalf("resumed stream differs: %d vs %d rows", len(got), len(want))
	}
	if remote.peerRetriesTotal() == 0 {
		t.Fatal("stream survived connection kills without recording any retries")
	}
}

// peerRetriesTotal sums retry counters over the source's owners.
func (r *RemoteSource) peerRetriesTotal() int64 {
	var n int64
	for _, p := range r.owners {
		n += p.Retries.Load()
	}
	return n
}

// TestDeadPeerCleanError: a peer that is gone for good must surface as a
// structured unavailable error, not a hang or a raw transport error.
func TestDeadPeerCleanError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	stub, err := relation.NewStub("pts", 1.0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	peer := NewPeer(addr)
	peer.DialTimeout = 200 * time.Millisecond
	peer.PullTimeout = 200 * time.Millisecond
	rr := &RemoteRelation{
		Name: "pts", MaxScore: 1.0, Dim: 2, Tuples: 10, Shards: 1,
		Owners: map[int][]*Peer{0: {peer}},
		Bounds: map[int]relation.ShardBounds{0: {Min: []float64{-1, -1}, Max: []float64{1, 1}, MaxScore: 1, Tuples: 10}},
	}
	rs, err := OpenRemoteShard(context.Background(), stub, rr, 0, api.AccessScore, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = rs.NextKeyed()
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("dead peer: got %v, want *api.Error with code %q", err, api.CodeUnavailable)
	}
}

// TestDiscoverRejectsDisagreement: peers reporting different metadata
// for one relation name must fail discovery.
func TestDiscoverRejectsDisagreement(t *testing.T) {
	relA := testRelation(t, "pts", 1, 40, 2)
	relB := testRelation(t, "pts", 2, 44, 2) // different tuple count
	sa, err := relation.Partition(relA, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := relation.Partition(relB, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrA := startServer(t, &testBackend{name: "a", rels: map[string]*relation.Sharded{"pts": sa}, owns: func(int) bool { return true }})
	addrB := startServer(t, &testBackend{name: "b", rels: map[string]*relation.Sharded{"pts": sb}, owns: func(int) bool { return true }})
	fleet := NewFleet([]string{addrA, addrB})
	defer fleet.Close()
	if _, err := fleet.Discover(context.Background()); err == nil {
		t.Fatal("discovery accepted disagreeing peers")
	}
}

// skewedBackend is a testBackend that advertises shard 0's rectangle one
// unit too wide: a replica that loaded the same tuples and disagrees on
// nothing else.
type skewedBackend struct{ *testBackend }

func (b skewedBackend) Hello() HelloInfo {
	h := b.testBackend.Hello()
	bounds := &h.Relations[0].Owned[0].Bounds
	bounds.Max = append([]float64(nil), bounds.Max...)
	bounds.Max[0]++
	return h
}

// TestDiscoverRejectsRectangleDisagreement: two owners of one shard that
// agree on its size and max score and differ on its rectangle must fail
// discovery — the coordinator prunes by the rectangle, so merging them
// would prune by whichever replica answered hello last.
func TestDiscoverRejectsRectangleDisagreement(t *testing.T) {
	s, err := relation.Partition(testRelation(t, "pts", 5, 40, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	honest := &testBackend{name: "a", rels: map[string]*relation.Sharded{"pts": s}, owns: func(int) bool { return true }}
	fleet := NewFleet([]string{startServer(t, honest), startServer(t, skewedBackend{honest})})
	defer fleet.Close()
	_, err = fleet.Discover(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disagree on the bounds") {
		t.Fatalf("discovery over replicas with different rectangles: %v, want the bounds disagreement", err)
	}
	agreeing := NewFleet([]string{startServer(t, honest), startServer(t, honest)})
	defer agreeing.Close()
	if _, err := agreeing.Discover(context.Background()); err != nil {
		t.Fatalf("discovery over agreeing replicas: %v", err)
	}
}

// TestDiscoverRejectsCoverageGaps: a shard nobody owns fails discovery.
func TestDiscoverRejectsCoverageGaps(t *testing.T) {
	rel := testRelation(t, "pts", 3, 40, 2)
	s, err := relation.Partition(rel, 4)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, &testBackend{name: "a", rels: map[string]*relation.Sharded{"pts": s},
		owns: func(i int) bool { return i != 1 }})
	fleet := NewFleet([]string{addr})
	defer fleet.Close()
	if _, err := fleet.Discover(context.Background()); err == nil {
		t.Fatal("discovery accepted a fleet missing shard 1")
	}
}

// TestScoreBoundIsFirstKey: the advertised score bound equals the true
// first key of the shard stream — exactness the latent merge relies on.
func TestScoreBoundIsFirstKey(t *testing.T) {
	sharded, _, rr := shardedFixture(t, 4, 2)
	stub, err := rr.Stub()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sharded.NumShards(); s++ {
		rs, err := OpenRemoteShard(context.Background(), stub, rr, s, api.AccessScore, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound := rs.KeyLowerBound()
		_, key, _, err := rs.NextKeyed()
		if err != nil {
			t.Fatal(err)
		}
		if bound != key {
			t.Fatalf("shard %d: score bound %v, first key %v", s, bound, key)
		}
		rs.Close()
	}
}

// TestDistanceBoundIsSound: the distance bound a coordinator derives from
// bounds that crossed the wire must lower-bound the shard's true first
// key, for queries anywhere — random, on each shard's rectangle corners
// and faces, an ulp outside it, and far away.
func TestDistanceBoundIsSound(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, shards := range []int{1, 5, 12} {
		sharded, _, rr := shardedFixture(t, shards, 2)
		stub, err := rr.Stub()
		if err != nil {
			t.Fatal(err)
		}
		var queries [][]float64
		for trial := 0; trial < 10; trial++ {
			queries = append(queries, []float64{rnd.Float64() * 6, rnd.Float64() * 6})
		}
		for s := 0; s < sharded.NumShards(); s++ {
			b := rr.Bounds[s]
			queries = append(queries, b.Min, b.Max,
				[]float64{b.Max[0], (b.Min[1] + b.Max[1]) / 2},
				[]float64{math.Nextafter(b.Min[0], math.Inf(-1)), b.Min[1]},
				[]float64{b.Max[0] + 1e6, b.Min[1] - 1e6})
		}
		for qi, q := range queries {
			for s := 0; s < sharded.NumShards(); s++ {
				rs, err := OpenRemoteShard(context.Background(), stub, rr, s, api.AccessDistance, q, 0)
				if err != nil {
					t.Fatal(err)
				}
				bound := rs.KeyLowerBound()
				_, key, _, err := rs.NextKeyed()
				if err != nil {
					t.Fatal(err)
				}
				rs.Close()
				if bound > key {
					t.Fatalf("%d shards, query %d %v shard %d: bound %v exceeds first key %v", shards, qi, q, s, bound, key)
				}
			}
		}
	}
}
