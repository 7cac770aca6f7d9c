package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/shardrpc"
)

// maxRequestBody bounds the JSON body of a query to keep a single caller
// from exhausting server memory.
const maxRequestBody = 1 << 20

// maxRelationBody bounds the CSV body of a relation registration.
const maxRelationBody = 32 << 20

// Server is the HTTP front end: JSON endpoints over an executor and its
// catalog. Every query endpoint speaks the versioned api.Request model.
//
//	POST   /v1/query            — answer a query (batch JSON response)
//	POST   /v1/query/stream     — answer a query incrementally (NDJSON
//	                              api.ResultEvent lines, flushed as the
//	                              engine certifies each result)
//	GET    /v1/relations        — list the registered relations
//	POST   /v1/relations        — register a relation from a CSV body
//	DELETE /v1/relations/{name} — evict a relation
//	GET    /v1/healthz          — liveness probe (200 while the process runs)
//	GET    /v1/readyz           — readiness probe (503 while the catalog
//	                              builds or a shard has no live replica)
//	GET    /metrics             — Prometheus text exposition: the
//	                              cumulative serving counters plus
//	                              latency/TTFE/engine-cost histograms
//
// Every error produced by the handlers carries the structured body
// {"error":{"code":..., "message":...}}; unmatched paths and methods are
// answered by the router with Go's plain-text 404/405.
type Server struct {
	exec  *Executor
	cat   *Catalog
	start time.Time
	mux   *http.ServeMux
	// fleet, when set (coordinator mode), adds per-peer health to
	// /v1/healthz and /v1/readyz.
	fleet *shardrpc.Fleet
}

// NewServer wires the endpoints over cat and exec.
func NewServer(cat *Catalog, exec *Executor) *Server {
	s := &Server{exec: exec, cat: cat, start: time.Now(), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("GET /v1/relations", s.handleRelations)
	s.mux.HandleFunc("POST /v1/relations", s.handleRegisterRelation)
	s.mux.HandleFunc("DELETE /v1/relations/{name}", s.handleEvictRelation)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", exec.Registry().Handler())
	return s
}

// Handler returns the routed handler, ready for http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// AttachFleet marks this server a coordinator over fleet: /v1/healthz
// gains per-peer health (with degraded, not failed, reporting when a
// peer is down), and the executor's registry gains the per-peer metric
// families. Call once, before serving.
func (s *Server) AttachFleet(fleet *shardrpc.Fleet) {
	s.fleet = fleet
	s.exec.AttachFleet(fleet)
}

// writeJSON serializes v with status code. Encoding happens before the
// header is written so an encode failure can still surface as a
// structured 500 instead of a silent 200 with a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeJSON(struct {
			Error *api.Error `json:"error"`
		}{api.Errorf(api.CodeInternal, "encoding response: %v", err)})
	}
	writeBody(w, status, body)
}

// writeBody sends an encoded JSON body, whole and so with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError emits the structured error body. Overload rejections get a
// Retry-After so well-behaved clients back off instead of hammering a
// server that just told them its queue is full.
func writeError(w http.ResponseWriter, err error) {
	ae := asAPIError(err)
	if ae.Code == api.CodeOverloaded {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, ae.Code.HTTPStatus(), struct {
		Error *api.Error `json:"error"`
	}{ae})
}

// decodeRequest reads one api.Request from the body, answering the
// structured error itself on failure (ok reports whether req is usable).
func decodeRequest(w http.ResponseWriter, r *http.Request) (*api.Request, bool) {
	var req api.Request
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, api.Errorf(api.CodeBadRequest, "request body exceeds %d bytes", maxRequestBody))
			return nil, false
		}
		writeError(w, api.Errorf(api.CodeBadRequest, "invalid JSON body: %v", err))
		return nil, false
	}
	if dec.More() {
		writeError(w, api.Errorf(api.CodeBadRequest, "request body must hold exactly one JSON object"))
		return nil, false
	}
	return &req, true
}

// handleQuery answers POST /v1/query: one api.Request in, one batch
// api.Response out.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	var body []byte // set when resp is a replay: the answer's shared wire form
	resp, err := s.exec.execute(r.Context(), req, func(b []byte) error { body = b; return nil })
	switch {
	case err != nil:
		writeError(w, err)
	case body == nil:
		writeJSON(w, http.StatusOK, resp)
	case resp.Trace == nil:
		writeBody(w, http.StatusOK, body)
	default:
		// Its own trace, spliced in where Response declares it: last.
		if trace, err := json.Marshal(resp.Trace); err == nil {
			body = slices.Concat(body[:len(body)-2], []byte(`,"trace":`), trace, []byte("}\n"))
		}
		writeBody(w, http.StatusOK, body)
	}
}

// handleQueryStream answers POST /v1/query/stream with NDJSON: one
// api.ResultEvent per line, the first result flushed as soon as the
// engine certifies it, a summary line last; a replayed answer's lines
// are already encoded and go out in one write. Later lines are flushed
// when the drain would wait for the engine and once the stream ends, not
// one by one: a burst of certified results leaves in one write. Failures
// before the first event are ordinary structured errors with a proper
// status; failures after it are appended in-band as an error event (the
// status line has already been sent).
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	w.Header().Set("Content-Type", "application/x-ndjson") // writeError resets it
	wrote, unflushed := false, false
	flush := func() {
		if unflushed && flusher != nil {
			flusher.Flush()
		}
		unflushed = false
	}
	written := func(err error) error {
		if err == nil {
			unflushed = true
			if !wrote {
				flush()
			}
		}
		wrote = true
		return err
	}
	sink := func(ev api.ResultEvent) error { return written(enc.Encode(ev)) }
	wire := func(lines []byte) error {
		_, err := w.Write(lines)
		return written(err)
	}
	defer flush()
	if err := s.exec.executeStream(r.Context(), req, sink, wire, flush); err != nil {
		if !wrote {
			writeError(w, err)
			return
		}
		// Best effort: the client may already be gone.
		_ = written(enc.Encode(api.ResultEvent{Type: api.EventError, Error: asAPIError(err)}))
	}
}

func (s *Server) handleRelations(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Relations []RelationInfo `json:"relations"`
	}{s.cat.Infos()})
}

// handleRegisterRelation registers a relation at runtime from a CSV
// request body ("id,score,x1,...,xd[,attr...]"). Query parameters:
//
//	name     — catalog name (required)
//	maxScore — σ_max; 0 or absent infers it from the data
//	shards   — shard count (default 1; 0 auto-picks from relation size)
//
// Shards are grid boxes (proxrank.NewShardedRelation); answers do not
// depend on the partition, so any other parameter, such as a strategy
// older clients still send, is ignored.
// A taken name answers 409; evict it first to replace a relation, which
// bumps the generation: no answer cached on the old one is served again.
func (s *Server) handleRegisterRelation(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeError(w, api.Errorf(api.CodeBadRequest, "query parameter %q is required", "name"))
		return
	}
	maxScore := 0.0
	if v := q.Get("maxScore"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, api.Errorf(api.CodeBadRequest, "bad maxScore %q: %v", v, err))
			return
		}
		maxScore = f
	}
	shards := 1
	if v := q.Get("shards"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, api.Errorf(api.CodeBadRequest, "bad shards %q: want a non-negative integer (0 = auto)", v))
			return
		}
		shards = n
	}
	body := http.MaxBytesReader(w, r.Body, maxRelationBody)
	rel, err := proxrank.ReadRelationCSV(body, name, maxScore)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, api.Errorf(api.CodeBadRequest, "relation body exceeds %d bytes", maxRelationBody))
			return
		}
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	if err := s.cat.RegisterSharded(name, rel, shards); err != nil {
		writeError(w, err)
		return
	}
	reginfo, err := s.cat.Info(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, struct {
		Relation RelationInfo `json:"relation"`
	}{reginfo})
}

// handleEvictRelation removes a relation from the catalog. In-flight
// queries holding the entry finish against it; cached answers over it
// are unreachable from here on and age out of the LRU.
func (s *Server) handleEvictRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.cat.Evict(name) {
		writeError(w, api.Errorf(api.CodeNotFound, "relation %q is not registered", name))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Evicted string `json:"evicted"`
	}{name})
}

// PeerHealth is one fleet peer's state in the coordinator's healthz.
type PeerHealth struct {
	Addr   string `json:"addr"`
	Status string `json:"status"` // "ok" or "down"
	Error  string `json:"error,omitempty"`
	// OwnedShards maps relation name to the shard indices this peer
	// serves, per discovery.
	OwnedShards map[string][]int `json:"ownedShards,omitempty"`
	// Coverage qualifies a down peer: "replicated" when every shard it
	// owns is also served by a live peer (queries are unaffected),
	// "bound-dependent" when some shard has no live replica — a query
	// still succeeds if its score floor proves those shards prunable, and
	// maps to a clean "unavailable" error otherwise.
	Coverage string `json:"coverage,omitempty"`
}

// peerHealth pings every fleet peer and classifies the fallout of any
// that are down. The coordinator itself is alive either way, so the
// aggregate status is "degraded", never a non-200: a down peer removes
// capacity, not the coordinator.
func (s *Server) peerHealth(ctx context.Context) (status string, peers []PeerHealth) {
	status = "ok"
	owned := make(map[string]map[string][]int)    // addr → relation → shards
	replicas := make(map[string]map[int][]string) // relation → shard → owner addrs
	for _, ri := range s.cat.Infos() {
		for addr, shards := range ri.Owners {
			m, ok := owned[addr]
			if !ok {
				m = make(map[string][]int)
				owned[addr] = m
			}
			m[ri.Name] = shards
			rm, ok := replicas[ri.Name]
			if !ok {
				rm = make(map[int][]string)
				replicas[ri.Name] = rm
			}
			for _, sh := range shards {
				rm[sh] = append(rm[sh], addr)
			}
		}
	}
	up := make(map[string]bool)
	for _, p := range s.fleet.Peers() {
		ph := PeerHealth{Addr: p.Addr, Status: "ok", OwnedShards: owned[p.Addr]}
		if _, err := p.Call(ctx, &shardrpc.Request{Verb: shardrpc.VerbPing}); err != nil {
			ph.Status = "down"
			ph.Error = err.Error()
			status = "degraded"
		} else {
			up[p.Addr] = true
		}
		peers = append(peers, ph)
	}
	for i := range peers {
		if peers[i].Status != "down" {
			continue
		}
		coverage := "replicated"
		for rel, shards := range peers[i].OwnedShards {
			for _, sh := range shards {
				live := false
				for _, addr := range replicas[rel][sh] {
					if up[addr] {
						live = true
						break
					}
				}
				if !live {
					coverage = "bound-dependent"
				}
			}
		}
		peers[i].Coverage = coverage
	}
	return status, peers
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	var peers []PeerHealth
	if s.fleet != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		status, peers = s.peerHealth(ctx)
	}
	writeJSON(w, http.StatusOK, struct {
		Status        string       `json:"status"`
		Relations     int          `json:"relations"`
		UptimeSeconds float64      `json:"uptimeSeconds"`
		Peers         []PeerHealth `json:"peers,omitempty"`
	}{status, s.cat.Len(), time.Since(s.start).Seconds(), peers})
}

// handleReadyz answers GET /v1/readyz: readiness, as opposed to the
// liveness of /v1/healthz. The server is not ready — 503, so load
// balancers and startup waits hold traffic — while the catalog is still
// building a registration's indexes, or (coordinator mode) while some
// shard of a registered remote relation has no reachable replica at
// all; it is ready otherwise, including when down peers are fully
// covered by live replicas. Healthz stays 200 in every one of those
// states: the process is alive either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reply := func(ready bool, reason string) {
		status := http.StatusOK
		if !ready {
			w.Header().Set("Retry-After", "1")
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason,omitempty"`
		}{ready, reason})
	}
	if n := s.cat.Building(); n > 0 {
		reply(false, "catalog: index build in progress")
		return
	}
	if s.fleet != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		_, peers := s.peerHealth(ctx)
		for _, p := range peers {
			if p.Status == "down" && p.Coverage == "bound-dependent" {
				reply(false, "shards without a live replica (peer "+p.Addr+" down, unreplicated)")
				return
			}
		}
	}
	reply(true, "")
}
