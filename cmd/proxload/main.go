// Command proxload drives open-loop query traffic against a proxserve
// instance and reports what the serving layer actually delivers under
// concurrency: end-to-end latency percentiles, time-to-first-event on
// the streaming endpoint (the ranked-enumeration cost metric: how soon
// does the first certified result reach a client), cache-hit and
// coalesce rates, and the broker's slow-subscriber drops.
//
// Arrivals are open-loop (Poisson): queries are launched on a schedule
// that does not slow down when the server does, which is what exposes
// queueing — a closed loop would politely wait and hide it. Arrivals
// that would exceed -max-inflight are shed and counted rather than
// queued, keeping the generator honest.
//
// The query mix is controlled by -stream (fraction streamed), -hot
// (fraction drawn from a small hot set, which turns into cache hits and
// single-flight coalesces) and -k; -slow-clients adds deliberately slow
// NDJSON readers pinned to the hottest query, the adversarial workload
// the stream delivery broker exists for.
//
// Usage:
//
//	proxload -addr http://localhost:8080 -rate 200 -duration 10s
//	proxload -selfserve -rate 500 -duration 5s -stream 0.5 -slow-clients 4
//
// -selfserve spins up an in-process proxserve (bundled city data) and
// drives it over a real TCP socket, so a delivery-broker study needs no
// external setup: the -stream-buffer/-stream-overflow/
// -stream-block-timeout flags configure the in-process server exactly
// like proxserve.
//
// -topology coord:N upgrades -selfserve to a distributed deployment: N
// in-process shard servers (each owning every Nth shard of every
// relation, partitioned per -shards/-shard-strategy; -replicas r gives
// every shard r consecutive owners) behind a coordinator that prunes
// unreachable shards by their advertised bounds and merges the rest
// over the wire. The same latency/TTFE study then measures the
// coordinator path, and the report's server delta includes
// shardsPruned/remoteStreamsOpened. -identity-check additionally replays
// a fixed query set against a single-node twin of the same data and
// exits nonzero on any byte-level response difference — the CI gate for
// the distributed merge.
//
// -chaos "verb=pull;action=delay;delay=200ms;every=10" puts the first
// shard server behind a fault-injecting listener (same grammar as
// proxserve -fault-spec), so the run reports what hedged pulls,
// failover, and degradation do to tail latency instead of the happy
// path; failures are broken down by structured error code in the
// report. Startup waits on /v1/readyz, so measurements never include
// index builds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/shardrpc"
	"repro/internal/vec"
	"repro/service"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "base URL of the target proxserve")
		selfserve = flag.Bool("selfserve", false, "spin up an in-process proxserve on a loopback port and target it")
		city      = flag.String("city", "SF", "city data set for -selfserve")
		rate      = flag.Float64("rate", 100, "mean arrival rate in queries/sec (open loop, Poisson)")
		duration  = flag.Duration("duration", 10*time.Second, "how long to generate load")
		streamFr  = flag.Float64("stream", 0.5, "fraction of arrivals using /v1/query/stream (rest use /v1/query)")
		k         = flag.Int("k", 10, "top-K per query")
		accessF   = flag.String("access", "", "access kind sent on every query: distance, score, or empty for the server default (distance)")
		hotFr     = flag.Float64("hot", 0.5, "fraction of arrivals drawn from the hot query set (cache hits after warmup)")
		hotSet    = flag.Int("hot-set", 4, "number of distinct hot query vectors")
		relsFl    = flag.String("rel", "", "comma-separated relation names (default: first two of GET /v1/relations)")
		seed      = flag.Int64("seed", 1, "RNG seed for arrivals and query vectors")
		maxInfl   = flag.Int("max-inflight", 512, "cap on concurrently outstanding requests; arrivals beyond are shed")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		spread    = flag.Float64("query-spread", 0.02, "radius of random query vectors around the base point")
		baseFl    = flag.String("query-base", "", "comma-separated base query vector (default: city landmark for -selfserve, origin otherwise)")
		overflow  = flag.String("overflow", "", "overflow policy sent on stream requests: block, drop, or empty for the server default")
		slowN     = flag.Int("slow-clients", 0, "deliberately slow stream readers pinned to the hottest query")
		slowRead  = flag.Duration("slow-read", 200*time.Millisecond, "per-event stall of a slow client")
		slowBuf   = flag.Int("slow-rcvbuf", 4096, "slow clients' socket receive buffer (small = real TCP backpressure)")
		jsonOut   = flag.String("json", "", "also write the report as JSON to this file")
		maxErrFr  = flag.Float64("max-error-rate", 1.0, "exit nonzero when failed requests exceed this fraction (CI gate; 0 = any error fails)")

		// In-process server knobs, mirroring proxserve.
		workers   = flag.Int("workers", 0, "selfserve: max concurrent engine executions (0 = GOMAXPROCS)")
		streamBuf = flag.Int("stream-buffer", service.DefaultStreamBuffer, "selfserve: stream delivery buffer (events a client may lag behind the engine)")
		overflowS = flag.String("stream-overflow", service.DefaultStreamOverflow, "selfserve: server-side overflow policy (block|drop)")
		blockTo   = flag.Duration("stream-block-timeout", service.DefaultStreamBlockTimeout, "selfserve: engine wait on block-policy laggards")
		cacheSz   = flag.Int("cache", service.DefaultCacheSize, "selfserve: LRU result-cache capacity")
		srvSndbuf = flag.Int("server-sndbuf", 0, "selfserve: cap accepted connections' send buffers (0 = kernel default; loopback autotuning otherwise hides slow readers)")

		// Memory-bounded study knobs: serve big synthetic relations from
		// mmap-backed relfiles, spill enumeration to disk, and gate the
		// run on the server's own resident-memory gauge.
		selfTuples = flag.Int("selfserve-tuples", 0, "selfserve: serve synthetic relations of this many tuples each instead of the bundled city data (0 = city data)")
		selfDim    = flag.Int("selfserve-dim", 8, "selfserve: feature dimensionality of the -selfserve-tuples synthetic relations")
		selfProx   = flag.Bool("selfserve-relfile", false, "selfserve: write the relations to mmap-ready .prox relfiles and serve them file-backed (flat-RSS mode)")
		spillDirF  = flag.String("spill-dir", "", "selfserve: file spill tier for BufferSpill sessions, forwarded to the in-process server")
		spillMemF  = flag.Int("spill-mem", 0, "selfserve: in-memory spill-slab watermark in bytes, forwarded to the in-process server (0 = 4 MiB default)")
		bufPolicy  = flag.String("buffer-policy", "", "bufferPolicy sent on every query: prune, spill (engages the server's -spill-dir tier), or empty for the server default")
		maxResib   = flag.Int64("max-resident-bytes", 0, "exit nonzero when the server's resident set (proxrank_process_resident_bytes, sampled during the run) ever exceeds this many bytes (0 = no gate)")

		// Distributed selfserve knobs.
		topology  = flag.String("topology", "single", `selfserve deployment: "single" or "coord:N" (N in-process shard servers behind a coordinator)`)
		shardsFl  = flag.Int("shards", 6, "selfserve coord topology: shards per relation")
		strategyF = flag.String("shard-strategy", "grid", "selfserve coord topology: partition strategy (hash|grid)")
		replicasF = flag.Int("replicas", 1, "selfserve coord topology: consecutive-peer owners per shard (the r of proxserve -own i/n/r)")
		identityF = flag.Bool("identity-check", false, "selfserve coord topology: replay fixed queries against a single-node twin and exit nonzero on any byte difference")
		chaosF    = flag.String("chaos", "", "selfserve coord topology: fault-injection spec applied to the first shard server (same grammar as proxserve -fault-spec); pair with -replicas 2 to study hedging and failover under load")
	)
	flag.Parse()

	base := *addr
	var baseVec []float64
	cfg := service.Config{
		Workers:            *workers,
		CacheSize:          *cacheSz,
		DefaultTimeout:     *timeout,
		StreamBuffer:       *streamBuf,
		StreamOverflow:     *overflowS,
		StreamBlockTimeout: *blockTo,
		SpillDir:           *spillDirF,
		SpillMemBytes:      *spillMemF,
	}
	if *selfserve {
		switch {
		case *topology == "single":
			srvURL, landmark, shutdown, err := startSelfServe(*city, *selfTuples, *selfDim, *selfProx, *srvSndbuf, cfg)
			if err != nil {
				log.Fatalf("proxload: selfserve: %v", err)
			}
			defer shutdown()
			base = srvURL
			baseVec = landmark
			if *selfTuples > 0 {
				log.Printf("selfserve: in-process proxserve on %s (synthetic %d tuples × dim %d, relfile=%v, streamBuffer %d)",
					srvURL, *selfTuples, *selfDim, *selfProx, *streamBuf)
			} else {
				log.Printf("selfserve: in-process proxserve on %s (city %s, streamBuffer %d)", srvURL, strings.ToUpper(*city), *streamBuf)
			}
		case strings.HasPrefix(*topology, "coord:"):
			n := 0
			if _, err := fmt.Sscanf(*topology, "coord:%d", &n); err != nil || n < 1 {
				log.Fatalf("proxload: -topology %q: want coord:N with N >= 1", *topology)
			}
			deploy, err := startCoordServe(*city, n, *shardsFl, *strategyF, *srvSndbuf, *replicasF, *chaosF, cfg)
			if err != nil {
				log.Fatalf("proxload: coord selfserve: %v", err)
			}
			defer deploy.shutdown()
			base = deploy.url
			baseVec = deploy.landmark
			log.Printf("selfserve: coordinator on %s over %d shard servers (city %s, %d %s shards/relation, %d replica(s)/shard)",
				deploy.url, n, strings.ToUpper(*city), *shardsFl, *strategyF, *replicasF)
			if *chaosF != "" {
				log.Printf("CHAOS: injecting faults into shard server 0 (%s)", *chaosF)
			}
			if *identityF {
				if err := deploy.identityCheck(cfg); err != nil {
					log.Fatalf("proxload: identity check FAILED: %v", err)
				}
				log.Printf("identity check: coordinator and single-node twin byte-identical on %d fixed queries", identityQueries)
			}
		default:
			log.Fatalf("proxload: -topology %q: want single or coord:N", *topology)
		}
	} else if *topology != "single" || *identityF || *chaosF != "" || *replicasF != 1 {
		log.Fatal("proxload: -topology/-identity-check/-chaos/-replicas require -selfserve")
	}
	if *baseFl != "" {
		v, err := vec.Parse(*baseFl)
		if err != nil {
			log.Fatalf("proxload: -query-base: %v", err)
		}
		baseVec = v
	}

	client := &http.Client{Timeout: *timeout}
	if err := waitReady(client, base, 30*time.Second); err != nil {
		log.Fatalf("proxload: %v", err)
	}
	relations, err := pickRelations(client, base, *relsFl)
	if err != nil {
		log.Fatalf("proxload: %v", err)
	}
	if baseVec == nil {
		baseVec = make([]float64, 2)
	}
	log.Printf("targeting %s, relations %v, rate %.0f/s for %v", base, relations, *rate, *duration)

	statsBefore, err := fetchStats(client, base)
	if err != nil {
		log.Fatalf("proxload: reading /v1/stats: %v", err)
	}
	metricsBefore, err := scrapeMetrics(client, base)
	if err != nil {
		log.Fatalf("proxload: %v", err)
	}

	gen := &generator{
		client:    client,
		base:      base,
		relations: relations,
		k:         *k,
		access:    *accessF,
		overflow:  *overflow,
		bufPolicy: *bufPolicy,
		streamFr:  *streamFr,
		hotFr:     *hotFr,
		baseVec:   baseVec,
		spread:    *spread,
		inflight:  make(chan struct{}, max(1, *maxInfl)),
	}
	rng := rand.New(rand.NewSource(*seed))
	gen.hot = make([][]float64, max(1, *hotSet))
	for i := range gen.hot {
		gen.hot[i] = gen.randVec(rng)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	// Resident-memory sampler: poll the server's own RSS gauge while the
	// load runs. The peak is reported always and gated by
	// -max-resident-bytes — the CI check behind the flat-RSS claim of
	// mmap-backed relations and the file spill tier.
	var residentPeak atomic.Int64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			if snap, err := scrapeMetrics(client, base); err == nil {
				if rss := int64(snap.gauge("proxrank_process_resident_bytes")); rss > residentPeak.Load() {
					residentPeak.Store(rss)
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()

	// Slow clients: the adversarial subscribers. They all chase the
	// hottest query so they coalesce with (and pre-broker, delay) the
	// regular traffic on that key.
	var slowWG sync.WaitGroup
	var slowDropped atomic.Int64
	slowHTTP := &http.Client{Transport: &http.Transport{
		DialContext:     smallRcvbufDialer(*slowBuf).DialContext,
		MaxIdleConns:    *slowN,
		IdleConnTimeout: time.Second,
	}}
	for i := 0; i < *slowN; i++ {
		slowWG.Add(1)
		slowRng := rand.New(rand.NewSource(*seed + 1000 + int64(i)))
		go func() {
			defer slowWG.Done()
			gen.slowClient(ctx, slowHTTP, slowRng, *slowRead, &slowDropped)
		}()
	}

	start := time.Now()
	gen.run(ctx, rng, *rate)
	gen.wg.Wait()
	elapsed := time.Since(start)
	cancel()
	slowWG.Wait()
	samplerWG.Wait()

	statsAfter, err := fetchStats(client, base)
	if err != nil {
		log.Fatalf("proxload: reading /v1/stats: %v", err)
	}
	metricsAfter, err := scrapeMetrics(client, base)
	if err != nil {
		log.Fatalf("proxload: %v", err)
	}

	rep := gen.report(elapsed, statsBefore, statsAfter, slowDropped.Load())
	if metricsAfter != nil {
		rep.ServerDuration = summarizeHist(metricsAfter.delta(metricsBefore, "proxrank_query_duration_seconds"))
		rep.ServerTTFE = summarizeHist(metricsAfter.delta(metricsBefore, "proxrank_query_ttfe_seconds"))
		rep.SpillBytes = int64(metricsAfter.gauge("proxrank_spill_bytes_total") - metricsBefore.gauge("proxrank_spill_bytes_total"))
	}
	rep.ResidentPeakBytes = residentPeak.Load()
	rep.print(os.Stdout)
	if *jsonOut != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatalf("proxload: writing %s: %v", *jsonOut, err)
		}
	}
	// The exit code is the CI contract: a smoke run must fail loudly when
	// the server misbehaves, not just print an error count.
	done := rep.Batch.Count + rep.Stream.Count
	if done == 0 {
		log.Fatal("proxload: no request completed successfully")
	}
	if rate := float64(rep.Errors) / float64(done+rep.Errors); rate > *maxErrFr {
		log.Fatalf("proxload: error rate %.1f%% exceeds -max-error-rate %.1f%%", 100*rate, 100**maxErrFr)
	}
	if *maxResib > 0 {
		if peak := rep.ResidentPeakBytes; peak == 0 {
			log.Fatal("proxload: -max-resident-bytes set but the server exposed no proxrank_process_resident_bytes gauge")
		} else if peak > *maxResib {
			log.Fatalf("proxload: peak resident %d bytes (%.1f MiB) exceeds -max-resident-bytes %d",
				peak, float64(peak)/(1<<20), *maxResib)
		} else {
			log.Printf("resident gate OK: peak %.1f MiB <= ceiling %.1f MiB",
				float64(peak)/(1<<20), float64(*maxResib)/(1<<20))
		}
	}
}

// startSelfServe builds a catalog — the bundled city data set, or
// synthetic relations of tuples × dim when tuples > 0 — and serves it on
// a loopback port, returning the base URL, a sensible base query vector,
// and a shutdown func. With useRelfile the relations are written to
// mmap-ready .prox files in a temp directory and loaded file-backed:
// after admission the build-time heap is released, so the serving
// process's resident set reflects only what queries touch.
func startSelfServe(city string, tuples, dim int, useRelfile bool, sndbuf int, cfg service.Config) (string, []float64, func(), error) {
	var rels []*proxrank.Relation
	var query []float64
	if tuples > 0 {
		gcfg := proxrank.DefaultSyntheticConfig()
		gcfg.BaseTuples = tuples
		gcfg.Dim = dim
		gcfg.Seed = 11
		var err error
		rels, err = proxrank.SyntheticRelations(gcfg)
		if err != nil {
			return "", nil, nil, err
		}
		query = make([]float64, dim) // the shared region is centered at the origin
	} else {
		var cq proxrank.Vector
		var err error
		rels, cq, _, err = proxrank.CityDataset(strings.ToUpper(city))
		if err != nil {
			return "", nil, nil, err
		}
		query = []float64(cq)
	}
	cat := service.NewCatalog()
	cleanup := func() {}
	if useRelfile {
		dir, err := os.MkdirTemp("", "proxload-relfile-*")
		if err != nil {
			return "", nil, nil, err
		}
		cleanup = func() { _ = os.RemoveAll(dir) }
		for i, rel := range rels {
			sharded, err := proxrank.NewShardedRelation(rel, proxrank.AutoShardCount(rel.Len()), proxrank.GridPartition)
			if err != nil {
				cleanup()
				return "", nil, nil, err
			}
			path := fmt.Sprintf("%s/r%d%s", dir, i, proxrank.RelFileExtension)
			if err := proxrank.SaveRelFile(path, sharded); err != nil {
				cleanup()
				return "", nil, nil, err
			}
			if err := cat.LoadRelFile(rel.Name, path); err != nil {
				cleanup()
				return "", nil, nil, err
			}
		}
		// Drop the build-time copies and hand the pages back to the OS so
		// the resident gauge measures serving, not generation.
		rels = nil
		debug.FreeOSMemory()
	} else {
		for _, rel := range rels {
			// shards == 0: catalog admission auto-picks from relation size.
			if err := cat.RegisterSharded(rel.Name, rel, 0, proxrank.HashPartition); err != nil {
				cleanup()
				return "", nil, nil, err
			}
		}
	}
	exec := service.NewExecutor(cat, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	if sndbuf > 0 {
		ln = clampSndbufListener(ln, sndbuf)
	}
	srv := &http.Server{Handler: service.NewServer(cat, exec).Handler()}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() { _ = srv.Close(); cleanup() }
	return "http://" + ln.Addr().String(), query, shutdown, nil
}

// coordDeploy is an in-process distributed deployment: N shard servers,
// a coordinator serving HTTP, and enough bookkeeping to replay queries
// against a single-node twin of the same data.
type coordDeploy struct {
	url      string
	landmark []float64
	coord    *service.Executor
	rels     []*proxrank.Relation
	names    []string
	shards   int
	strategy proxrank.PartitionStrategy
	shutdown func()
}

// startCoordServe builds the bundled city data set, partitions every
// relation, serves the shards from n in-process shard servers (server i
// owns shard s when i is among the replicas consecutive peers starting
// at s%n), and fronts them with a coordinator listening on a loopback
// port — the same deployment `proxserve -shard-server` × n plus
// `proxserve -coordinator` builds across processes, minus the process
// boundaries. A non-empty chaosSpec puts server 0 behind a
// fault-injecting listener, so the run measures resilience (hedges,
// failover, degradation) instead of the happy path.
func startCoordServe(city string, n, shards int, strategyName string, sndbuf, replicas int, chaosSpec string, cfg service.Config) (*coordDeploy, error) {
	rels, query, _, err := proxrank.CityDataset(strings.ToUpper(city))
	if err != nil {
		return nil, err
	}
	strategy, err := proxrank.ParsePartitionStrategy(strategyName)
	if err != nil {
		return nil, err
	}
	if replicas < 1 || replicas > n {
		return nil, fmt.Errorf("-replicas %d: want 1 <= r <= %d shard servers", replicas, n)
	}
	var inj *faultinject.Injector
	if chaosSpec != "" {
		inj, err = faultinject.Parse(chaosSpec)
		if err != nil {
			return nil, fmt.Errorf("-chaos: %w", err)
		}
	}
	var cleanups []func()
	shutdown := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cat := service.NewCatalog()
		for _, rel := range rels {
			if err := cat.RegisterSharded(rel.Name, rel, shards, strategy); err != nil {
				shutdown()
				return nil, err
			}
		}
		exec := service.NewExecutor(cat, cfg)
		backend := service.NewShardBackend(cat, exec, service.Ownership{Index: i, Count: n, Replicas: replicas})
		srv := shardrpc.NewServer(backend)
		var bound net.Addr
		if i == 0 && inj != nil {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				shutdown()
				return nil, err
			}
			if err := srv.Serve(inj.Listener(ln)); err != nil {
				shutdown()
				return nil, err
			}
			bound = ln.Addr()
		} else {
			bound, err = srv.Listen("127.0.0.1:0")
			if err != nil {
				shutdown()
				return nil, err
			}
		}
		backend.SetName(bound.String())
		addrs[i] = bound.String()
		cleanups = append(cleanups, srv.Close)
	}

	fleet := shardrpc.NewFleet(addrs)
	cleanups = append(cleanups, fleet.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	remotes, err := fleet.Discover(ctx)
	cancel()
	if err != nil {
		shutdown()
		return nil, err
	}
	coordCat := service.NewCatalog()
	var names []string
	for name, rr := range remotes {
		if err := coordCat.RegisterRemote(name, rr); err != nil {
			shutdown()
			return nil, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	coordExec := service.NewExecutor(coordCat, cfg)
	apiSrv := service.NewServer(coordCat, coordExec)
	apiSrv.AttachFleet(fleet)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdown()
		return nil, err
	}
	if sndbuf > 0 {
		ln = clampSndbufListener(ln, sndbuf)
	}
	httpSrv := &http.Server{Handler: apiSrv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	cleanups = append(cleanups, func() { _ = httpSrv.Close() })

	return &coordDeploy{
		url:      "http://" + ln.Addr().String(),
		landmark: []float64(query),
		coord:    coordExec,
		rels:     rels,
		names:    names,
		shards:   shards,
		strategy: strategy,
		shutdown: shutdown,
	}, nil
}

// identityQueries is the size of the fixed query set -identity-check
// replays: the landmark plus deterministic offsets around it, each at a
// different K, batch path, default algorithm and access.
const identityQueries = 8

// identityCheck replays the fixed query set against the coordinator
// executor and a freshly built single-node twin of the same relations,
// failing on the first byte-level difference between the canonicalized
// responses (wall-clock cost fields excluded — everything else,
// including float score bits, must match).
func (d *coordDeploy) identityCheck(cfg service.Config) error {
	cfg.CacheSize = -1 // compare engine answers, not cache luck
	twinCat := service.NewCatalog()
	for _, rel := range d.rels {
		if err := twinCat.RegisterSharded(rel.Name, rel, d.shards, d.strategy); err != nil {
			return err
		}
	}
	twin := service.NewExecutor(twinCat, cfg)
	relations := d.names
	if len(relations) > 2 {
		relations = relations[:2]
	}
	for i := 0; i < identityQueries; i++ {
		vec := make([]float64, len(d.landmark))
		for j, b := range d.landmark {
			vec[j] = b + 0.01*float64(i-identityQueries/2)*float64(j+1)
		}
		req := &service.QueryRequest{Query: vec, Relations: relations, K: 2 + i%5}
		want, err := twin.Execute(context.Background(), req)
		if err != nil {
			return fmt.Errorf("query %d: single-node twin: %w", i, err)
		}
		got, err := d.coord.Execute(context.Background(), req)
		if err != nil {
			return fmt.Errorf("query %d: coordinator: %w", i, err)
		}
		w, g := canonicalResponse(want), canonicalResponse(got)
		if w != g {
			return fmt.Errorf("query %d: responses differ\nsingle-node: %s\ncoordinator: %s", i, w, g)
		}
	}
	return nil
}

// canonicalResponse strips wall-clock fields and renders the response as
// JSON; Go's float64 marshaling is shortest-round-trip, so score bits
// survive into the comparison.
func canonicalResponse(resp *service.QueryResponse) string {
	c := *resp
	c.Cost.ElapsedMicros = 0
	c.Cached = false
	buf, _ := json.Marshal(&c)
	return string(buf)
}

// waitReady blocks until the target answers GET /v1/readyz with 200 —
// the startup gate that keeps the load run from measuring index builds
// or an uncovered fleet as query latency. Servers predating the
// endpoint (404) fall back to /v1/healthz.
func waitReady(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	probe := base + "/v1/readyz"
	for {
		resp, err := client.Get(probe)
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
			if code == http.StatusNotFound && strings.HasSuffix(probe, "/v1/readyz") {
				probe = base + "/v1/healthz"
				continue
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (last probe %s)", budget, probe)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// pickRelations resolves the relation list: the -rel flag verbatim, or
// the first two names the server reports.
func pickRelations(client *http.Client, base, flagVal string) ([]string, error) {
	if flagVal != "" {
		return strings.Split(flagVal, ","), nil
	}
	resp, err := client.Get(base + "/v1/relations")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var raw bytes.Buffer
		_, _ = raw.ReadFrom(resp.Body)
		return nil, fmt.Errorf("GET /v1/relations: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw.Bytes()))
	}
	var body struct {
		Relations []struct {
			Name string `json:"name"`
		} `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/relations: %w", err)
	}
	if len(body.Relations) < 2 {
		return nil, fmt.Errorf("server has %d relations; need at least 2 (or pass -rel)", len(body.Relations))
	}
	names := []string{body.Relations[0].Name, body.Relations[1].Name}
	return names, nil
}

// fetchStats reads GET /v1/stats into the server's own document type.
func fetchStats(client *http.Client, base string) (service.StatsResponse, error) {
	var st service.StatsResponse
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// subCounters subtracts b from a on every int64 field, the embedded
// executor snapshot included, so a counter the server adds is reported
// without a line here. Gauges (inFlight, queued, …) subtract too; the
// report reads none of them.
func subCounters(a, b reflect.Value) {
	for i := 0; i < a.NumField(); i++ {
		switch f := a.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() - b.Field(i).Int())
		case reflect.Struct:
			subCounters(f, b.Field(i))
		}
	}
}

// generator owns the load loop and its measurements.
type generator struct {
	client    *http.Client
	base      string
	relations []string
	k         int
	access    string
	overflow  string
	bufPolicy string
	streamFr  float64
	hotFr     float64
	hot       [][]float64
	baseVec   []float64
	spread    float64
	inflight  chan struct{}

	wg   sync.WaitGroup
	shed atomic.Int64

	// hotLive, when set, overrides the static hot set: each slow client
	// publishes the fresh vector it is about to stream, so regular hot
	// traffic follows the same in-flight key — the "trending query with a
	// slow leader" scenario the delivery broker exists for.
	hotLive atomic.Pointer[[]float64]

	mu      sync.Mutex
	batchNs []float64 // end-to-end latency, batch
	strmNs  []float64 // end-to-end latency, stream
	ttfeNs  []float64 // time to first event, stream
	errs    int
	errCode map[string]int // failures keyed by structured api code (or "transport")
	firstEr error
}

// errCodeOf buckets one failure for the report: the structured api
// error code when the server answered with one, "transport" otherwise.
func errCodeOf(err error) string {
	var ae *api.Error
	if errors.As(err, &ae) && ae.Code != "" {
		return string(ae.Code)
	}
	return "transport"
}

// randVec draws a query vector around the base point.
func (g *generator) randVec(rng *rand.Rand) []float64 {
	v := make([]float64, len(g.baseVec))
	for i, b := range g.baseVec {
		v[i] = b + (rng.Float64()*2-1)*g.spread
	}
	return v
}

// run fires arrivals until ctx expires. Inter-arrival gaps are
// exponential with mean 1/rate — an open loop: the schedule never slows
// down because the server did.
func (g *generator) run(ctx context.Context, rng *rand.Rand, rate float64) {
	if rate <= 0 {
		rate = 1
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		stream := rng.Float64() < g.streamFr
		var vec []float64
		if rng.Float64() < g.hotFr {
			if p := g.hotLive.Load(); p != nil {
				vec = *p
			} else {
				vec = g.hot[rng.Intn(len(g.hot))]
			}
		} else {
			vec = g.randVec(rng)
		}
		select {
		case g.inflight <- struct{}{}:
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				defer func() { <-g.inflight }()
				g.fire(vec, stream)
			}()
		default:
			g.shed.Add(1)
		}
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		timer.Reset(gap)
	}
}

// body builds the request JSON once per arrival.
func (g *generator) body(vec []float64) []byte {
	req := api.Request{Query: vec, Relations: g.relations, K: g.k, Access: g.access, Overflow: g.overflow, BufferPolicy: g.bufPolicy}
	buf, _ := json.Marshal(&req)
	return buf
}

// fire issues one query and records its measurements.
func (g *generator) fire(vec []float64, stream bool) {
	if stream {
		ttfe, total, err := g.fireStream(vec)
		g.record(err, func() {
			g.strmNs = append(g.strmNs, float64(total))
			g.ttfeNs = append(g.ttfeNs, float64(ttfe))
		})
		return
	}
	start := time.Now()
	resp, err := g.client.Post(g.base+"/v1/query", "application/json", bytes.NewReader(g.body(vec)))
	if err == nil {
		var sink struct {
			Results []json.RawMessage `json:"results"`
			Error   *api.Error        `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sink)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			// Prefer the structured error body (code buckets in the
			// report) over the bare status line.
			if sink.Error != nil {
				err = sink.Error
			} else {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
	}
	total := time.Since(start)
	g.record(err, func() { g.batchNs = append(g.batchNs, float64(total)) })
}

// fireStream issues one streaming query, measuring time to first event
// and end-to-end drain time.
func (g *generator) fireStream(vec []float64) (ttfe, total time.Duration, err error) {
	start := time.Now()
	resp, err := g.client.Post(g.base+"/v1/query/stream", "application/json", bytes.NewReader(g.body(vec)))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var errBody struct {
			Error *api.Error `json:"error"`
		}
		if jerr := json.NewDecoder(resp.Body).Decode(&errBody); jerr == nil && errBody.Error != nil {
			return 0, 0, errBody.Error
		}
		return 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	first := true
	for {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 && first {
			ttfe = time.Since(start)
			first = false
		}
		if rerr != nil {
			break
		}
		var ev struct {
			Type  string     `json:"type"`
			Error *api.Error `json:"error"`
		}
		if jerr := json.Unmarshal(line, &ev); jerr != nil {
			return 0, 0, fmt.Errorf("bad stream line: %w", jerr)
		}
		if ev.Type == "error" {
			return 0, 0, ev.Error
		}
		if ev.Type == "summary" {
			return ttfe, time.Since(start), nil
		}
	}
	return 0, 0, fmt.Errorf("stream ended without a summary")
}

// record folds one finished request into the tallies.
func (g *generator) record(err error, ok func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.errs++
		if g.errCode == nil {
			g.errCode = make(map[string]int)
		}
		g.errCode[errCodeOf(err)]++
		if g.firstEr == nil {
			g.firstEr = err
		}
		return
	}
	ok()
}

// slowClient loops streaming queries, stalling slowRead per event — the
// client the broker protects everyone else from. Each connection streams
// a fresh vector and publishes it as the live hot key, so this client is
// the single-flight leader of a query the regular traffic is busy
// coalescing on. Overflow drops (overloaded status or in-band error
// events) are counted, not failed.
func (g *generator) slowClient(ctx context.Context, client *http.Client, rng *rand.Rand, slowRead time.Duration, dropped *atomic.Int64) {
	for ctx.Err() == nil {
		vec := g.randVec(rng)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			g.base+"/v1/query/stream", bytes.NewReader(g.body(vec)))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			// ctx expiry or transport failure: back off instead of
			// hot-looping against a dead server; the loop recheck exits.
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		br := bufio.NewReader(resp.Body)
		published := false
		for {
			line, rerr := br.ReadBytes('\n')
			if rerr != nil {
				break
			}
			if !published {
				// First event read: this client provably owns the query's
				// single-flight key mid-run. Only now is the vector
				// published as "trending", so the regular hot traffic
				// coalesces behind this slow leader rather than winning the
				// key first.
				published = true
				g.hotLive.Store(&vec)
			}
			if bytes.Contains(line, []byte(`"error"`)) && bytes.Contains(line, []byte("overloaded")) {
				dropped.Add(1)
				break
			}
			select {
			case <-ctx.Done():
			case <-time.After(slowRead):
			}
		}
		resp.Body.Close()
	}
}

// quantiles of a sample, in milliseconds.
type latencyMs struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50Ms"`
	P95   float64 `json:"p95Ms"`
	P99   float64 `json:"p99Ms"`
	Mean  float64 `json:"meanMs"`
	Max   float64 `json:"maxMs"`
}

func summarize(ns []float64) latencyMs {
	if len(ns) == 0 {
		return latencyMs{}
	}
	sort.Float64s(ns)
	q := func(p float64) float64 {
		i := int(p * float64(len(ns)-1))
		return ns[i] / 1e6
	}
	sum := 0.0
	for _, v := range ns {
		sum += v
	}
	return latencyMs{
		Count: len(ns),
		P50:   q(0.50),
		P95:   q(0.95),
		P99:   q(0.99),
		Mean:  sum / float64(len(ns)) / 1e6,
		Max:   ns[len(ns)-1] / 1e6,
	}
}

// report is the run's full output, printable and JSON-serializable.
type report struct {
	ElapsedSec   float64               `json:"elapsedSec"`
	OfferedRPS   float64               `json:"offeredRps"`
	AchievedRPS  float64               `json:"achievedRps"`
	Shed         int64                 `json:"shed"`
	Errors       int                   `json:"errors"`
	ErrorsByCode map[string]int        `json:"errorsByCode,omitempty"`
	FirstError   string                `json:"firstError,omitempty"`
	Batch        latencyMs             `json:"batch"`
	Stream       latencyMs             `json:"stream"`
	TTFE         latencyMs             `json:"ttfe"`
	SlowDropped  int64                 `json:"slowClientDrops"`
	Server       service.StatsResponse `json:"serverDelta"`
	// ServerDuration/ServerTTFE are the run's deltas of the server's own
	// /metrics histograms (all modes and cache states folded together) —
	// the executor's view of the same requests the client percentiles
	// time from the outside.
	ServerDuration serverHist `json:"serverDurationHist"`
	ServerTTFE     serverHist `json:"serverTtfeHist"`
	// ResidentPeakBytes is the largest proxrank_process_resident_bytes
	// sample observed while the load ran (0 when the server exposes no
	// gauge); SpillBytes is the run's delta of proxrank_spill_bytes_total.
	ResidentPeakBytes int64 `json:"residentPeakBytes,omitempty"`
	SpillBytes        int64 `json:"spillBytes,omitempty"`
}

func (g *generator) report(elapsed time.Duration, before, after service.StatsResponse, slowDropped int64) report {
	g.mu.Lock()
	defer g.mu.Unlock()
	subCounters(reflect.ValueOf(&after).Elem(), reflect.ValueOf(before))
	done := len(g.batchNs) + len(g.strmNs)
	r := report{
		ElapsedSec:   elapsed.Seconds(),
		OfferedRPS:   float64(done+g.errs+int(g.shed.Load())) / elapsed.Seconds(),
		AchievedRPS:  float64(done) / elapsed.Seconds(),
		Shed:         g.shed.Load(),
		Errors:       g.errs,
		ErrorsByCode: g.errCode,
		Batch:        summarize(g.batchNs),
		Stream:       summarize(g.strmNs),
		TTFE:         summarize(g.ttfeNs),
		SlowDropped:  slowDropped,
		Server:       after,
	}
	if g.firstEr != nil {
		r.FirstError = g.firstEr.Error()
	}
	return r
}

func (r report) print(w *os.File) {
	fmt.Fprintf(w, "\nproxload report (%.1fs, offered %.0f rps, achieved %.0f rps, shed %d, errors %d)\n",
		r.ElapsedSec, r.OfferedRPS, r.AchievedRPS, r.Shed, r.Errors)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
	if len(r.ErrorsByCode) > 0 {
		codes := make([]string, 0, len(r.ErrorsByCode))
		for c := range r.ErrorsByCode {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		fmt.Fprintf(w, "  errors by code:")
		for _, c := range codes {
			fmt.Fprintf(w, " %s=%d", c, r.ErrorsByCode[c])
		}
		fmt.Fprintln(w)
	}
	row := func(name string, l latencyMs) {
		fmt.Fprintf(w, "  %-18s %6d  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  mean %8.2fms  max %8.2fms\n",
			name, l.Count, l.P50, l.P95, l.P99, l.Mean, l.Max)
	}
	row("batch latency", r.Batch)
	row("stream latency", r.Stream)
	row("stream TTFE", r.TTFE)
	srow := func(name string, h serverHist) {
		if h.Count == 0 {
			return
		}
		fmt.Fprintf(w, "  %-18s %6d  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  mean %8.2fms  (server /metrics)\n",
			name, h.Count, h.P50Ms, h.P95Ms, h.P99Ms, h.MeanMs)
	}
	srow("server latency", r.ServerDuration)
	srow("server TTFE", r.ServerTTFE)
	d := r.Server
	fmt.Fprintf(w, "  server delta: queries %d, cacheHits %d (%.0f%%), coalesced %d, engineRuns %d\n",
		d.Queries, d.CacheHits, pct(d.CacheHits, d.Queries), d.Coalesced, d.EngineRuns)
	fmt.Fprintf(w, "                brokered %d, midRunAttaches %d, slowSubscriberDrops %d, rejected %d, canceled %d\n",
		d.StreamsBrokered, d.MidRunAttaches, d.SlowSubscriberDrops, d.Rejected, d.Canceled)
	if d.RemoteStreamsOpened > 0 || d.ShardsPruned > 0 {
		fmt.Fprintf(w, "                remoteStreamsOpened %d, shardsPruned %d (%.0f%% of remote shard sources)\n",
			d.RemoteStreamsOpened, d.ShardsPruned, pct(d.ShardsPruned, d.ShardsPruned+d.RemoteStreamsOpened))
		fmt.Fprintf(w, "                remoteRowsFetched %d for %d consumed (%.1f fetched per row used)\n",
			d.RemoteRowsFetched, d.RemoteRowsConsumed, float64(d.RemoteRowsFetched)/float64(max(d.RemoteRowsConsumed, 1)))
	}
	if r.SlowDropped > 0 {
		fmt.Fprintf(w, "  slow clients dropped by overflow policy: %d\n", r.SlowDropped)
	}
	if r.ResidentPeakBytes > 0 {
		fmt.Fprintf(w, "  server resident peak: %.1f MiB", float64(r.ResidentPeakBytes)/(1<<20))
		if r.SpillBytes > 0 {
			fmt.Fprintf(w, "  (spilled %.1f MiB to disk)", float64(r.SpillBytes)/(1<<20))
		}
		fmt.Fprintln(w)
	}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
