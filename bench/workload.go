package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	proxrank "repro"
	"repro/api"
)

// dataSeed fixes the relations every run serves: -seed drives only the
// request list, so two seeds query the same data.
const dataSeed = 11

// Topologies a workload can run on.
const (
	topoSingle  = "single"  // one node, relations on the heap
	topoCoord3  = "coord3"  // coordinator over three in-process shard servers
	topoRelfile = "relfile" // one node, mmap-backed relfiles, file spill tier
)

// Request classes, in reporting order.
var classNames = []string{"tight", "corner", "score", "hot", "cold", "center", "edge", "spill", "prune"}

// workload is one traffic mix over one topology.
type workload struct {
	name string
	why  string

	topology string
	tuples   int // per relation
	dim      int
	// cacheSize is service.Config.CacheSize: 0 takes the server default
	// (1024), negative disables the result cache.
	cacheSize int
	// coordShards is the grid shard count per relation on topoCoord3; the
	// single-node topologies let admission pick (shards = 0).
	coordShards int

	// rate is how many requests one nominal second of --seconds buys, sized
	// at the seed commit on the 2-core reference box so the timed part
	// lasts about --seconds there. A fixed request count (rather than a
	// fixed duration) is what makes every count metric repeat exactly.
	rate float64
	// period is the request-list pattern length: N is rounded up to a
	// multiple of blocks × period, so class shares and twin pairing hold
	// at any --seconds and every slice of the run has the same class mix.
	period int
	// replaceEvery, when positive, re-registers R1 (same tuples) before
	// every replaceEvery-th request: a catalog write beside the reads.
	replaceEvery int

	// replayCap bounds the replay pass (a replayed request costs about five
	// engine runs) so it stays a few seconds on every workload.
	replayCap int

	// build generates the n-request list from rng.
	build func(rng *rand.Rand, n int, w *workload) []request
}

// sized returns a copy of w serving relations of the given size; the
// pre-flight and the tests scale the data down this way.
func (w *workload) sized(tuples int) *workload {
	c := *w
	c.tuples = tuples
	return &c
}

// request is one generated query: the bytes that go on the wire plus the
// decoded form the oracles and the replay ledger run in-process.
type request struct {
	class  string
	stream bool
	req    api.Request
	body   []byte
	// twin is the index of the request that must answer byte-identically
	// (relfile_spill pairs a spill request with its prune twin), or -1.
	twin int
	// replace asks the issuing client to re-register R1 first.
	replace bool
}

var relationNames = []string{"R1", "R2"}

// workloads lists the benchmark's four traffic mixes. Names are final:
// BENCHMARK.json and every later comparison key on them.
func workloads() []*workload {
	return []*workload{
		{
			name:     "single_engine",
			why:      "cache off, so every request runs the engine: R-tree NN and score-index access, tight QP and corner bounds, block scoring; service and HTTP are a small share",
			topology: topoSingle, tuples: 20000, dim: 4, cacheSize: -1,
			rate: 560, period: 20, replayCap: 160, build: buildSingleEngine,
		},
		{
			name:     "hot_stream",
			why:      "cache on, 90% hot keys, K=100, catalog writes beside reads: the work is api normalize/canonical, cache, single-flight, broker replay, JSON encode and HTTP, not the engine",
			topology: topoSingle, tuples: 20000, dim: 4, cacheSize: 0,
			rate: 1500, period: 20, replaceEvery: 2000, replayCap: 96, build: buildHotStream,
		},
		{
			name:     "coord3_wire",
			why:      "coordinator over 3 shard servers, 12 grid shards per relation, cache off: shardrpc framing and MergedSource latent-head pruning do the work; center opens nearly all shards, edge prunes most",
			topology: topoCoord3, tuples: 20000, dim: 4, cacheSize: -1, coordShards: 12,
			rate: 48, period: 4, replayCap: 24, build: buildCoord3,
		},
		{
			name:     "relfile_spill",
			why:      "mmap-backed dim-8 relfiles with lazily built R-trees and a 64 KiB spill slab: the spill class writes PROXSPL1 segments, its prune twin bypasses the tier with identical answers",
			topology: topoRelfile, tuples: 30000, dim: 8, cacheSize: -1,
			rate: 100, period: 4, replayCap: 32, build: buildRelfileSpill,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want single_engine|hot_stream|coord3_wire|relfile_spill)", name)
}

// requestCount is N for a nominal duration: rate × seconds rounded up to
// a whole number of pattern periods per slice, at least one.
func (w *workload) requestCount(seconds float64) int {
	unit := blocks * w.period
	n := int(math.Ceil(w.rate * seconds))
	if n < unit {
		n = unit
	}
	if r := n % unit; r != 0 {
		n += unit - r
	}
	return n
}

// side is the edge length of the hypercube the synthetic tuples fill,
// centred at the origin.
func (w *workload) side() float64 { return w.dataConfig().SideLength() }

// dataConfig is the synthetic generator configuration of the workload's
// relations.
func (w *workload) dataConfig() proxrank.SyntheticConfig {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.BaseTuples = w.tuples
	cfg.Dim = w.dim
	cfg.Seed = dataSeed
	return cfg
}

// requests generates the seeded request list. Even-indexed request pairs
// use the batch endpoint, odd pairs the stream endpoint, so both delivery
// paths are present in every class.
func (w *workload) requests(seed int64, n int, traced bool) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := w.build(rng, n, w)
	for i := range reqs {
		r := &reqs[i]
		r.stream = (i/2)%2 == 1
		r.req.Relations = relationNames
		r.req.Trace = traced
		if w.replaceEvery > 0 && i > 0 && i%w.replaceEvery == 0 {
			r.replace = true
		}
		body, err := json.Marshal(&r.req)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		r.body = body
	}
	return reqs, nil
}

// uniformVec draws a point uniformly from the cube of half-width half
// centred at the origin.
func uniformVec(rng *rand.Rand, dim int, half float64) []float64 {
	v := make([]float64, dim)
	for j := range v {
		v[j] = (rng.Float64()*2 - 1) * half
	}
	return v
}

// buildSingleEngine: K = 20, query uniform in the central half of the
// region; class by i%5 — 0-2 tight (tbpa, distance), 3 corner (cbrr,
// distance), 4 score (tbpa over score access with proximity weights low
// enough that the score order certifies).
func buildSingleEngine(rng *rand.Rand, n int, w *workload) []request {
	half := w.side() / 4
	reqs := make([]request, n)
	for i := range reqs {
		r := request{twin: -1, req: api.Request{Query: uniformVec(rng, w.dim, half), K: 20}}
		switch i % 5 {
		case 3:
			r.class = "corner"
			r.req.Algorithm = api.AlgorithmCBRR
		case 4:
			r.class = "score"
			r.req.Algorithm = api.AlgorithmTBPA
			r.req.Access = api.AccessScore
			r.req.Weights = &api.Weights{Ws: 1, Wq: 0.05, Wmu: 0.05}
		default:
			r.class = "tight"
			r.req.Algorithm = api.AlgorithmTBPA
		}
		reqs[i] = r
	}
	return reqs
}

// hotSetSize is the number of distinct hot query vectors of hot_stream.
const hotSetSize = 32

// buildHotStream: K = 100; 90% hot — key floor(u²·32) of a 32-vector hot
// set, so a few keys take most of the traffic — and 10% cold, each a
// vector no other request uses. At the reference N the cold keys alone
// outnumber the 1024-entry LRU.
func buildHotStream(rng *rand.Rand, n int, w *workload) []request {
	half := w.side() / 4
	hot := make([][]float64, hotSetSize)
	for i := range hot {
		hot[i] = uniformVec(rng, w.dim, half)
	}
	reqs := make([]request, n)
	for i := range reqs {
		r := request{twin: -1, req: api.Request{K: 100}}
		if i%10 == 9 {
			r.class = "cold"
			r.req.Query = uniformVec(rng, w.dim, half)
		} else {
			r.class = "hot"
			u := rng.Float64()
			r.req.Query = hot[int(u*u*hotSetSize)]
		}
		reqs[i] = r
	}
	return reqs
}

// buildCoord3: even requests are center (K = 20, query in the central 30%
// of the region, so the merge needs keys from nearly every remote shard),
// odd requests edge (K = 2, query tucked into a corner, so the advertised
// shard bounds prune most remote streams before they are opened).
func buildCoord3(rng *rand.Rand, n int, w *workload) []request {
	side := w.side()
	reqs := make([]request, n)
	for i := range reqs {
		r := request{twin: -1}
		if i%2 == 0 {
			r.class = "center"
			r.req.K = 20
			r.req.Query = uniformVec(rng, w.dim, 0.15*side)
		} else {
			r.class = "edge"
			r.req.K = 2
			v := make([]float64, w.dim)
			for j := range v {
				// 0.40..0.48 of the side away from the centre, either way.
				v[j] = (0.40 + 0.08*rng.Float64()) * side
				if rng.Intn(2) == 0 {
					v[j] = -v[j]
				}
			}
			r.req.Query = v
		}
		reqs[i] = r
	}
	return reqs
}

// buildRelfileSpill: K = 10, distance access; even requests run under
// bufferPolicy spill, odd ones under prune, over the same N/2 query
// vectors: the prune class walks them half a list out of step, so the two
// requests that share a vector (twins, which must answer byte-identically)
// are N/2 requests apart and neither warms the other's pages.
func buildRelfileSpill(rng *rand.Rand, n int, w *workload) []request {
	half := w.side() / 4
	vecs := make([][]float64, n/2)
	for j := range vecs {
		vecs[j] = uniformVec(rng, w.dim, half)
	}
	reqs := make([]request, n)
	shift := len(vecs) / 2
	for j := range vecs {
		k := (j + shift) % len(vecs) // prune request 2j+1 reuses spill request 2k's vector
		reqs[2*j] = request{class: "spill", twin: 2*((j+shift)%len(vecs)) + 1,
			req: api.Request{Query: vecs[j], K: 10, BufferPolicy: api.BufferSpill}}
		reqs[2*j+1] = request{class: "prune", twin: 2 * k,
			req: api.Request{Query: vecs[k], K: 10, BufferPolicy: api.BufferPrune}}
	}
	return reqs
}
