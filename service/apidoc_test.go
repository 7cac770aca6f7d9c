package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	proxrank "repro"
	"repro/api"
	"repro/internal/shardrpc"
	"repro/service"
)

// TestAPIDoc is the doctest for docs/API.md: every fenced JSON block
// annotated with a <!-- doctest: ... --> marker is machine-checked, so
// the documented wire shapes cannot drift from the code.
//
// Modes:
//
//	request        the block decodes strictly into api.Request and
//	               passes Normalize
//	response       the block decodes strictly into api.Response
//	events         each NDJSON line decodes strictly into
//	               api.ResultEvent; a sequence ending in a summary must
//	               CollectStream cleanly
//	error          the block is a structured error body with code and
//	               message
//	csv            the block parses as a relation CSV body
//	live-request   the block is POSTed to /v1/query on the fixture
//	               server; the next live-response block must equal the
//	               actual response (volatile cost timings zeroed)
//	live-response  see live-request
//	live-stream    the block is POSTed to /v1/query/stream on the
//	               fixture server; the next live-events block must equal
//	               the actual NDJSON lines (volatile cost timings zeroed)
//	live-events    see live-stream
//	rpc-request    the block decodes strictly into shardrpc.Request
//	rpc-response   the block decodes strictly into shardrpc.Response
//	rpc-live-request   the block is sent as a frame to the fixture shard
//	                   server; the next rpc-live-response block must
//	                   equal the actual response frame's JSON
//	rpc-live-response  see rpc-live-request
//	rpc-live-frame     the block is an annotated hex dump (bytes, then
//	                   "#" and a comment, per line) of a binary request
//	                   frame, length prefix included. Read by the layout
//	                   the document gives, its request must encode to
//	                   exactly these bytes; they are then sent to the
//	                   fixture shard server, every rpc-live-frame on one
//	                   connection, so a next continues the pull before it
//	rpc-live-hex       answers an rpc-live-frame block: an annotated hex
//	                   dump that must equal the response frame byte for
//	                   byte, length prefix included
func TestAPIDoc(t *testing.T) {
	blocks := parseDocBlocks(t, "../docs/API.md")
	if len(blocks) == 0 {
		t.Fatal("docs/API.md has no doctest-annotated blocks")
	}
	srv := docFixtureServer(t)
	rpcPeer := docShardServer(t)
	rpcConn, err := net.Dial("tcp", rpcPeer.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rpcConn.Close()
	counts := map[string]int{}
	var pendingLive *docBlock
	for i := range blocks {
		b := blocks[i]
		counts[b.mode]++
		switch b.mode {
		case "request":
			var req api.Request
			strictDecode(t, b, &req)
			if err := req.Normalize(api.Limits{}); err != nil {
				t.Errorf("docs/API.md:%d: documented request fails validation: %v", b.line, err)
			}
		case "response":
			var resp api.Response
			strictDecode(t, b, &resp)
		case "events":
			checkEvents(t, b, b.text)
		case "error":
			var e struct {
				Error *api.Error `json:"error"`
			}
			strictDecode(t, b, &e)
			if e.Error == nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Errorf("docs/API.md:%d: error example missing code or message", b.line)
			}
		case "csv":
			if _, err := proxrank.ReadRelationCSV(strings.NewReader(b.text), "doc", 0); err != nil {
				t.Errorf("docs/API.md:%d: documented CSV does not parse: %v", b.line, err)
			}
		case "slowquery":
			var rec service.SlowQuery
			strictDecode(t, b, &rec)
			if rec.Mode == "" || rec.Outcome == "" || len(rec.Trace.Phases) == 0 {
				t.Errorf("docs/API.md:%d: slow-query example missing mode, outcome, or phases", b.line)
			}
		case "live-request", "live-stream":
			pendingLive = &blocks[i]
		case "live-response":
			requireLive(t, b, pendingLive, "live-request")
			checkLiveBatch(t, srv, pendingLive, b)
			pendingLive = nil
		case "live-events":
			requireLive(t, b, pendingLive, "live-stream")
			checkLiveStream(t, srv, pendingLive, b)
			pendingLive = nil
		case "rpc-request":
			var req shardrpc.Request
			strictDecode(t, b, &req)
			if req.Verb == "" {
				t.Errorf("docs/API.md:%d: rpc request example has no verb", b.line)
			}
		case "rpc-response":
			var resp shardrpc.Response
			strictDecode(t, b, &resp)
		case "rpc-live-request":
			pendingLive = &blocks[i]
		case "rpc-live-response":
			requireLive(t, b, pendingLive, "rpc-live-request")
			checkLiveRPC(t, rpcPeer, pendingLive, b)
			pendingLive = nil
		case "rpc-live-frame":
			checkRequestFrame(t, b)
			pendingLive = &blocks[i]
		case "rpc-live-hex":
			requireLive(t, b, pendingLive, "rpc-live-frame")
			checkLiveRPCHex(t, rpcConn, pendingLive, b)
			pendingLive = nil
		default:
			t.Errorf("docs/API.md:%d: unknown doctest mode %q", b.line, b.mode)
		}
	}
	if pendingLive != nil {
		t.Errorf("docs/API.md:%d: %s block without its answer block", pendingLive.line, pendingLive.mode)
	}
	// The reference must keep covering the core shapes.
	for _, mode := range []string{"request", "events", "error", "live-response", "live-events", "rpc-request", "rpc-response", "rpc-live-response", "rpc-live-frame", "rpc-live-hex"} {
		if counts[mode] == 0 {
			t.Errorf("docs/API.md documents no %s example", mode)
		}
	}
}

// TestAPIDocMetricsTable: every family GET /metrics serves, on the
// fixture node and on a coordinator over the fixture shard server, is
// named in docs/API.md, so a counter cannot be added without its table
// row.
func TestAPIDocMetricsTable(t *testing.T) {
	raw, err := os.ReadFile("../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := service.Open(context.Background(), service.NewCatalog(), service.NodeConfig{Peers: []string{docShardServer(t).Addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coordSrv := httptest.NewServer(coord.Handler())
	t.Cleanup(coordSrv.Close)
	for _, url := range []string{docFixtureServer(t).URL, coordSrv.URL} {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		families := 0
		for _, line := range strings.Split(string(body), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ = strings.Cut(name, " ")
				families++
				if !bytes.Contains(raw, []byte("`"+name+"`")) {
					t.Errorf("docs/API.md does not document the /metrics family %q", name)
				}
			}
		}
		if families == 0 {
			t.Fatalf("%s/metrics served no families", url)
		}
	}
}

type docBlock struct {
	mode string
	line int // 1-based line of the opening fence
	text string
}

// parseDocBlocks extracts fenced code blocks annotated with
// <!-- doctest: mode -->. The annotation applies to the next fenced
// block.
func parseDocBlocks(t *testing.T, path string) []docBlock {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	lines := strings.Split(string(raw), "\n")
	var blocks []docBlock
	mode := ""
	in := false
	start := 0
	var buf []string
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if !in {
			if rest, ok := strings.CutPrefix(trimmed, "<!-- doctest:"); ok {
				mode = strings.TrimSpace(strings.TrimSuffix(rest, "-->"))
				continue
			}
			if strings.HasPrefix(trimmed, "```") {
				in = true
				start = i + 1
				buf = nil
			}
			continue
		}
		if strings.HasPrefix(trimmed, "```") {
			in = false
			if mode != "" {
				blocks = append(blocks, docBlock{mode: mode, line: start, text: strings.Join(buf, "\n")})
				mode = ""
			}
			continue
		}
		buf = append(buf, line)
	}
	return blocks
}

func strictDecode(t *testing.T, b docBlock, v any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(b.text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Errorf("docs/API.md:%d: block does not decode into %T: %v", b.line, v, err)
	}
}

func checkEvents(t *testing.T, b docBlock, ndjson string) {
	t.Helper()
	var events []api.ResultEvent
	sawTerminal := false
	for off, line := range strings.Split(strings.TrimSpace(ndjson), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev api.ResultEvent
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			t.Errorf("docs/API.md:%d: event line %d invalid: %v", b.line, off+1, err)
			return
		}
		events = append(events, ev)
		if ev.Type == api.EventSummary || ev.Type == api.EventError {
			sawTerminal = true
		}
	}
	if sawTerminal {
		if _, err := api.CollectStream(events); err != nil && events[len(events)-1].Type != api.EventError {
			t.Errorf("docs/API.md:%d: event sequence does not collect: %v", b.line, err)
		}
	}
}

func requireLive(t *testing.T, b docBlock, pending *docBlock, want string) {
	t.Helper()
	if pending == nil || pending.mode != want {
		t.Fatalf("docs/API.md:%d: %s block is not preceded by a %s block", b.line, b.mode, want)
	}
}

// docCatalog holds the dataset every live example in docs/API.md is
// written against: hotels{h1,h2} and restaurants{r1,r2} with the
// documented scores and positions.
func docCatalog(t *testing.T) *service.Catalog {
	t.Helper()
	hotels, err := proxrank.NewRelation("hotels", 1.0, []proxrank.Tuple{
		{ID: "h1", Score: 0.9, Vec: proxrank.Vector{0.1, 0}},
		{ID: "h2", Score: 0.2, Vec: proxrank.Vector{5, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	food, err := proxrank.NewRelation("restaurants", 1.0, []proxrank.Tuple{
		{ID: "r1", Score: 0.8, Vec: proxrank.Vector{0, 0.2}},
		{ID: "r2", Score: 0.3, Vec: proxrank.Vector{-4, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := service.NewCatalog()
	if err := cat.Register("hotels", hotels); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("restaurants", food); err != nil {
		t.Fatal(err)
	}
	return cat
}

// docNode opens a node over the documentation dataset.
func docNode(t *testing.T, rpc net.Listener) *service.Node {
	t.Helper()
	node, err := service.Open(context.Background(), docCatalog(t), service.NodeConfig{
		Config:      service.Config{Workers: 2, CacheSize: -1},
		RPCListener: rpc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node
}

// docFixtureServer serves the documentation dataset over HTTP; every
// live example runs against it.
func docFixtureServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(docNode(t, nil).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// docListener advertises the fixed server name the documentation shows
// while accepting on a loopback port: a node names itself after its RPC
// listener's address.
type docListener struct{ net.Listener }

func (docListener) Addr() net.Addr { return docAddr{} }

type docAddr struct{}

func (docAddr) Network() string { return "tcp" }
func (docAddr) String() string  { return "shard-a.internal:8081" }

// docShardServer serves the same fixture data set over the shardrpc
// wire protocol, each relation as a single owned shard, under the fixed
// server name the documentation shows. Every rpc-live example runs
// against it.
func docShardServer(t *testing.T) *shardrpc.Peer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	docNode(t, docListener{ln})
	peer := shardrpc.NewPeer(ln.Addr().String())
	t.Cleanup(peer.Close)
	return peer
}

// checkLiveRPC sends the documented request frame to the fixture shard
// server and compares the actual response frame's JSON with the
// documented one.
func checkLiveRPC(t *testing.T, peer *shardrpc.Peer, reqB *docBlock, respB docBlock) {
	t.Helper()
	var req shardrpc.Request
	dec := json.NewDecoder(strings.NewReader(reqB.text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Errorf("docs/API.md:%d: rpc request does not decode: %v", reqB.line, err)
		return
	}
	resp, err := peer.Call(context.Background(), &req)
	if err != nil {
		t.Errorf("docs/API.md:%d: documented rpc request failed: %v", reqB.line, err)
		return
	}
	live, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeDoc(t, respB.line, []byte(respB.text))
	have := normalizeDoc(t, respB.line, live)
	if !reflect.DeepEqual(want, have) {
		gotJSON, _ := json.MarshalIndent(have, "", "  ")
		t.Errorf("docs/API.md:%d: documented rpc response differs from the live shard server.\nlive:\n%s", respB.line, gotJSON)
	}
}

// docHex reads an annotated hex dump: on each line, the bytes before "#".
func docHex(t *testing.T, b docBlock) []byte {
	t.Helper()
	var out []byte
	for _, line := range strings.Split(b.text, "\n") {
		data, _, _ := strings.Cut(line, "#")
		bs, err := hex.DecodeString(strings.Join(strings.Fields(data), ""))
		if err != nil {
			t.Fatalf("docs/API.md:%d: hex dump line %q: %v", b.line, line, err)
		}
		out = append(out, bs...)
	}
	return out
}

// checkRequestFrame reads a documented request frame by the layout
// docs/API.md gives for it — independently of the shardrpc decoder — and
// checks that the client's encoder turns that request into exactly the
// documented bytes.
func checkRequestFrame(t *testing.T, b docBlock) {
	t.Helper()
	frame := docHex(t, b)
	le := binary.LittleEndian
	req, ok := func() (req shardrpc.Request, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p := frame[4:]
		verbs := map[byte]string{1: shardrpc.VerbPull, 2: shardrpc.VerbNext}
		req = shardrpc.Request{Verb: verbs[p[5]], Batch: int(le.Uint32(p[8:])), Offset: int(le.Uint64(p[12:]))}
		for n := int(le.Uint32(p[20:])); len(req.Shards) < n; {
			req.Shards = append(req.Shards, int(le.Uint32(p[24+4*len(req.Shards):])))
		}
		p = p[24+4*len(req.Shards):]
		str := func() string {
			n := int(le.Uint32(p))
			s := string(p[4 : 4+n])
			p = p[4+n:]
			return s
		}
		req.Access, req.Relation = str(), str()
		for dim := int(le.Uint32(p)); len(req.Query) < dim; {
			req.Query = append(req.Query, math.Float64frombits(le.Uint64(p[4+8*len(req.Query):])))
		}
		return req, string(frame[4:8]) == "PRXQ"
	}()
	if !ok {
		t.Errorf("docs/API.md:%d: the documented bytes are not a request frame by the documented layout", b.line)
		return
	}
	enc, err := req.AppendFrame(nil)
	if err != nil {
		t.Errorf("docs/API.md:%d: %+v does not encode: %v", b.line, req, err)
	} else if !bytes.Equal(enc, frame) {
		t.Errorf("docs/API.md:%d: the client encodes %+v differently.\nencoder:\n%s", b.line, req, hex.Dump(enc))
	}
}

// checkLiveRPCHex sends a documented request frame over conn to the
// fixture shard server and compares the response frame, length prefix
// included, with the documented hex dump.
func checkLiveRPCHex(t *testing.T, conn net.Conn, reqB *docBlock, hexB docBlock) {
	t.Helper()
	want := docHex(t, hexB)
	if _, err := conn.Write(docHex(t, *reqB)); err != nil {
		t.Fatal(err)
	}
	have := make([]byte, 4)
	if _, err := io.ReadFull(conn, have); err != nil {
		t.Fatal(err)
	}
	have = append(have, make([]byte, binary.BigEndian.Uint32(have))...)
	if _, err := io.ReadFull(conn, have[4:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, have) {
		t.Errorf("docs/API.md:%d: documented frame differs from the live shard server.\nlive:\n%s", hexB.line, hex.Dump(have))
	}
}

// normalizeDoc parses one JSON value and zeroes the volatile cost fields
// (wall-clock timings) so documented and live outputs compare equal.
func normalizeDoc(t *testing.T, line int, data []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("docs/API.md:%d: %v (in %s)", line, err, data)
	}
	scrub(v)
	return v
}

// scrub zeroes every wall-clock field — any key ending in "Micros"
// (elapsedMicros, durationMicros, the trace's per-phase and per-pull
// timings) — anywhere in the value.
func scrub(v any) {
	switch m := v.(type) {
	case map[string]any:
		for k, val := range m {
			if strings.HasSuffix(k, "Micros") {
				m[k] = float64(0)
				continue
			}
			scrub(val)
		}
	case []any:
		for _, val := range m {
			scrub(val)
		}
	}
}

func checkLiveBatch(t *testing.T, srv *httptest.Server, reqB *docBlock, respB docBlock) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(reqB.text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("docs/API.md:%d: documented request answered %d: %s", reqB.line, resp.StatusCode, got.Bytes())
		return
	}
	want := normalizeDoc(t, respB.line, []byte(respB.text))
	have := normalizeDoc(t, respB.line, got.Bytes())
	if !reflect.DeepEqual(want, have) {
		gotJSON, _ := json.MarshalIndent(have, "", "  ")
		t.Errorf("docs/API.md:%d: documented response differs from the live server.\nlive (timings zeroed):\n%s", respB.line, gotJSON)
	}
}

func checkLiveStream(t *testing.T, srv *httptest.Server, reqB *docBlock, evB docBlock) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/query/stream", "application/json", strings.NewReader(reqB.text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("docs/API.md:%d: documented stream request answered %d: %s", reqB.line, resp.StatusCode, got.Bytes())
		return
	}
	wantLines := strings.Split(strings.TrimSpace(evB.text), "\n")
	haveLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(haveLines) {
		t.Errorf("docs/API.md:%d: documented stream has %d lines, live server sent %d:\n%s",
			evB.line, len(wantLines), len(haveLines), got.String())
		return
	}
	for i := range wantLines {
		want := normalizeDoc(t, evB.line, []byte(wantLines[i]))
		have := normalizeDoc(t, evB.line, []byte(haveLines[i]))
		if !reflect.DeepEqual(want, have) {
			gotJSON, _ := json.Marshal(have)
			t.Errorf("docs/API.md:%d: stream line %d differs from the live server.\nlive (timings zeroed): %s",
				evB.line, i+1, gotJSON)
		}
	}
}
