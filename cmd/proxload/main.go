// Command proxload drives open-loop query traffic against a proxserve
// instance and reports what the serving layer actually delivers under
// concurrency: end-to-end latency percentiles, time-to-first-event on
// the streaming endpoint (the ranked-enumeration cost metric: how soon
// does the first certified result reach a client), cache-hit and
// coalesce rates.
//
// Arrivals are open-loop (Poisson): queries are launched on a schedule
// that does not slow down when the server does, which is what exposes
// queueing — a closed loop would politely wait and hide it. Arrivals
// that would exceed maxInflight outstanding requests are shed and
// counted rather than queued, keeping the generator honest.
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
// -selfserve spins up an in-process proxserve and drives it over a real
// TCP socket, so a delivery-broker study needs no external setup. What
// it serves (bundled city data, -selfserve-tuples synthetic relations,
// either one from -selfserve-relfile mmap-backed files) and how it is
// deployed (-topology) are independent choices; a combination that
// cannot be built is refused, exit status 2, never quietly replaced.
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
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/vec"
	"repro/service"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. It returns the exit status, which is the CI
// contract: 2 for a command line it refuses, 1 when the run fails or a
// gate (-max-error-rate, -max-resident-bytes, -identity-check) trips.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "proxload: %v\n", err)
		return 2
	}
	if err := drive(o, stdout); err != nil {
		fmt.Fprintf(stderr, "proxload: %v\n", err)
		return 1
	}
	return 0
}

// dataSpec says what -selfserve serves and how it is partitioned: the
// bundled city data set, or synthetic relations of tuples × dim when
// tuples > 0; heap-resident, or written to mmap-ready .prox files and
// served file-backed when relfile is set.
type dataSpec struct {
	city        string
	tuples, dim int
	relfile     bool
	shards      int // 0 = picked from each relation's size
	strategy    proxrank.PartitionStrategy
}

// topology says how -selfserve deploys it: one node (servers == 0), or
// a coordinator over servers shard servers, every shard on replicas
// consecutive ones, the first behind chaos when set.
type topology struct {
	servers, replicas int
	chaos             *faultinject.Injector
}

// options is a parsed command line: the generator with its traffic mix
// bound, the -selfserve deployment, and the run's budget and gates.
type options struct {
	gen       *generator
	addr      string
	selfserve bool
	data      dataSpec
	topo      topology
	topoName  string
	cfg       service.Config
	sndbuf    int
	identity  bool

	rate              float64
	duration, timeout time.Duration
	hotSet            int
	rels, jsonOut     string
	seed              int64
	slowN             int
	slowRead          time.Duration
	maxErrFr          float64
	maxResident       int64
}

// parseFlags turns the command line into options, refusing what it
// cannot honour: every error it returns is a usage error.
func parseFlags(args []string, stderr io.Writer) (_ *options, err error) {
	o := &options{gen: &generator{}}
	g, c, d := o.gen, &o.cfg, &o.data
	var strategy string
	fs := flag.NewFlagSet("proxload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "http://localhost:8080", "base URL of the target proxserve")
	fs.BoolVar(&o.selfserve, "selfserve", false, "spin up an in-process proxserve on a loopback port and target it")
	fs.StringVar(&d.city, "city", "SF", "city data set for -selfserve")
	fs.Float64Var(&o.rate, "rate", 100, "mean arrival rate in queries/sec (open loop, Poisson)")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "how long to generate load")
	fs.Float64Var(&g.streamFr, "stream", 0.5, "fraction of arrivals using /v1/query/stream (rest use /v1/query)")
	fs.IntVar(&g.k, "k", 10, "top-K per query")
	fs.StringVar(&g.access, "access", "", "access kind sent on every query: distance, score, or empty for the server default (distance)")
	fs.Float64Var(&g.hotFr, "hot", 0.5, "fraction of arrivals drawn from the hot query set (cache hits after warmup)")
	fs.IntVar(&o.hotSet, "hot-set", 4, "number of distinct hot query vectors")
	fs.StringVar(&o.rels, "rel", "", "comma-separated relation names (default: first two of GET /v1/relations)")
	fs.Int64Var(&o.seed, "seed", 1, "RNG seed for arrivals and query vectors")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request client timeout")
	fs.Float64Var(&g.spread, "query-spread", 0.02, "radius of random query vectors around the base point")
	fs.Func("query-base", "comma-separated base query vector (default: city landmark for -selfserve, origin otherwise)",
		func(v string) (err error) { g.baseVec, err = vec.Parse(v); return err })
	fs.IntVar(&o.slowN, "slow-clients", 0, "deliberately slow stream readers pinned to the hottest query")
	fs.DurationVar(&o.slowRead, "slow-read", 200*time.Millisecond, "per-event stall of a slow client")
	fs.StringVar(&o.jsonOut, "json", "", "also write the report as JSON to this file")
	fs.Float64Var(&o.maxErrFr, "max-error-rate", 1.0, "exit nonzero when failed requests exceed this fraction (CI gate; 0 = any error fails)")

	// In-process server knobs, mirroring proxserve.
	fs.IntVar(&c.Workers, "workers", 0, "selfserve: max concurrent engine executions (0 = GOMAXPROCS)")
	fs.IntVar(&c.CacheSize, "cache", service.DefaultCacheSize, "selfserve: LRU result-cache capacity")
	fs.IntVar(&o.sndbuf, "server-sndbuf", 0, "selfserve: cap accepted connections' send buffers (0 = kernel default; loopback autotuning otherwise hides slow readers)")

	// Memory-bounded study knobs: serve big synthetic relations from
	// mmap-backed relfiles and gate the run on the server's own
	// resident-memory gauge.
	fs.IntVar(&d.tuples, "selfserve-tuples", 0, "selfserve: serve synthetic relations of this many tuples each instead of the bundled city data (0 = city data)")
	fs.IntVar(&d.dim, "selfserve-dim", 8, "selfserve: feature dimensionality of the -selfserve-tuples synthetic relations")
	fs.BoolVar(&d.relfile, "selfserve-relfile", false, "selfserve: write the relations to mmap-ready .prox relfiles and serve them file-backed (flat-RSS mode)")
	fs.Int64Var(&o.maxResident, "max-resident-bytes", 0, "exit nonzero when the server's resident set (proxrank_process_resident_bytes, sampled during the run) ever exceeds this many bytes (0 = no gate)")

	// Distributed selfserve knobs.
	fs.StringVar(&o.topoName, "topology", "single", `selfserve deployment: "single" or "coord:N" (N in-process shard servers behind a coordinator)`)
	fs.IntVar(&d.shards, "shards", 6, "selfserve coord topology: shards per relation (single: only when given; otherwise picked from each relation's size)")
	fs.StringVar(&strategy, "shard-strategy", "grid", "selfserve coord topology: partition strategy (hash|grid) (single: only when given; otherwise hash, grid for relfiles)")
	fs.IntVar(&o.topo.replicas, "replicas", 1, "selfserve coord topology: consecutive-peer owners per shard (the r of proxserve -own i/n/r)")
	fs.BoolVar(&o.identity, "identity-check", false, "selfserve: replay fixed queries against a single-node twin and exit nonzero on any byte difference")
	fs.Func("chaos", "selfserve coord topology: fault-injection spec applied to the first shard server (same grammar as proxserve -fault-spec); pair with -replicas 2 to study hedging and failover under load",
		func(v string) (err error) { o.topo.chaos, err = faultinject.Parse(v); return err })
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.DefaultTimeout = o.timeout
	t := &o.topo
	if !o.selfserve {
		if o.topoName != "single" || o.identity || t.chaos != nil || t.replicas != 1 {
			return nil, errors.New("-topology/-identity-check/-chaos/-replicas require -selfserve")
		}
		return o, nil
	}
	if o.topoName == "single" {
		if t.chaos != nil || t.replicas != 1 {
			return nil, errors.New("-chaos/-replicas need -topology coord:N: a single node has no shard server to fault or replicate")
		}
		// -shards/-shard-strategy default to the coord topology's layout. A
		// single node keeps what it always ran — a shard count picked from
		// each relation's size, hash-partitioned in RAM and grid-partitioned
		// in relfiles — unless the command line says otherwise (Visit tells
		// given from default).
		given := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["shards"] {
			d.shards = 0
		}
		if !given["shard-strategy"] && !d.relfile {
			strategy = "hash"
		}
	} else {
		if _, err := fmt.Sscanf(o.topoName, "coord:%d", &t.servers); err != nil || t.servers < 1 {
			return nil, fmt.Errorf("-topology %q: want single or coord:N with N >= 1", o.topoName)
		}
		if t.replicas < 1 || t.replicas > t.servers {
			return nil, fmt.Errorf("-replicas %d: want 1 <= r <= %d shard servers", t.replicas, t.servers)
		}
	}
	if d.strategy, err = proxrank.ParsePartitionStrategy(strategy); err != nil {
		return nil, err
	}
	return o, nil
}

// drive runs the load against the target — the -selfserve deployment it
// starts first, or -addr — and prints the report; an error is a failed
// run or a tripped gate.
func drive(o *options, stdout io.Writer) error {
	gen := o.gen
	gen.base = o.addr
	if o.selfserve {
		data, err := newDataset(o.data)
		if err != nil {
			return fmt.Errorf("selfserve: %w", err)
		}
		deploy, err := startSelfServe(data, o.topo, o.sndbuf, o.cfg)
		if err != nil {
			return fmt.Errorf("selfserve: %w", err)
		}
		defer deploy.shutdown()
		gen.base = deploy.url
		if gen.baseVec == nil {
			gen.baseVec = data.query
		}
		what := "city " + strings.ToUpper(o.data.city)
		if o.data.tuples > 0 {
			what = fmt.Sprintf("synthetic %d tuples × dim %d", o.data.tuples, o.data.dim)
		}
		log.Printf("selfserve: in-process proxserve on %s (%s, relfile=%v, topology %s, %d replica(s)/shard)",
			gen.base, what, o.data.relfile, o.topoName, o.topo.replicas)
		if o.topo.chaos != nil {
			log.Printf("CHAOS: injecting faults into shard server 0 (%d rule(s))", len(o.topo.chaos.Rules()))
		}
		if o.identity {
			if err := deploy.identityCheck(o.cfg); err != nil {
				return fmt.Errorf("identity check FAILED: %w", err)
			}
			log.Printf("identity check: served deployment and single-node twin byte-identical on %d fixed queries", identityQueries)
		}
	}
	if gen.baseVec == nil {
		gen.baseVec = make([]float64, 2)
	}

	client, base := &http.Client{Timeout: o.timeout}, gen.base
	gen.client = client
	if err := waitReady(client, base, 30*time.Second); err != nil {
		return err
	}
	var err error
	if gen.relations, err = pickRelations(client, base, o.rels); err != nil {
		return err
	}
	log.Printf("targeting %s, relations %v, rate %.0f/s for %v", base, gen.relations, o.rate, o.duration)

	metricsBefore, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}

	gen.inflight = make(chan struct{}, maxInflight)
	rng := rand.New(rand.NewSource(o.seed))
	gen.hot = make([][]float64, max(1, o.hotSet))
	for i := range gen.hot {
		gen.hot[i] = gen.randVec(rng)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.duration)
	defer cancel()

	// Resident-memory sampler: poll the server's own RSS gauge while the
	// load runs. The peak is reported always and gated by
	// -max-resident-bytes — the CI check behind the flat-RSS claim of
	// mmap-backed relations.
	var residentPeak atomic.Int64
	var background sync.WaitGroup // the sampler and the slow clients: all end with ctx
	background.Add(1)
	go func() {
		defer background.Done()
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
	slowHTTP := &http.Client{Transport: &http.Transport{
		DialContext:     smallRcvbufDialer(slowRcvbuf).DialContext,
		MaxIdleConns:    o.slowN,
		IdleConnTimeout: time.Second,
	}}
	defer slowHTTP.CloseIdleConnections()
	for i := 0; i < o.slowN; i++ {
		background.Add(1)
		slowRng := rand.New(rand.NewSource(o.seed + 1000 + int64(i)))
		go func() {
			defer background.Done()
			gen.slowClient(ctx, slowHTTP, slowRng, o.slowRead)
		}()
	}

	start := time.Now()
	gen.run(ctx, rng, o.rate)
	gen.wg.Wait()
	elapsed := time.Since(start)
	cancel()
	background.Wait()

	metricsAfter, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}

	rep := gen.report(elapsed, metricsAfter.counterDeltas(metricsBefore))
	rep.ServerDuration = summarizeHist(metricsAfter.delta(metricsBefore, "proxrank_query_duration_seconds"))
	rep.ServerTTFE = summarizeHist(metricsAfter.delta(metricsBefore, "proxrank_query_ttfe_seconds"))
	rep.ResidentPeakBytes = residentPeak.Load()
	rep.print(stdout)
	if o.jsonOut != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(o.jsonOut, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", o.jsonOut, err)
		}
	}
	// The exit code is the CI contract: a smoke run must fail loudly when
	// the server misbehaves, not just print an error count.
	done := rep.Batch.Count + rep.Stream.Count
	if done == 0 {
		return errors.New("no request completed successfully")
	}
	if rate := float64(rep.Errors) / float64(done+rep.Errors); rate > o.maxErrFr {
		return fmt.Errorf("error rate %.1f%% exceeds -max-error-rate %.1f%%", 100*rate, 100*o.maxErrFr)
	}
	if o.maxResident > 0 {
		peak := rep.ResidentPeakBytes
		if peak == 0 {
			return errors.New("-max-resident-bytes set but the server exposed no proxrank_process_resident_bytes gauge")
		}
		if peak > o.maxResident {
			return fmt.Errorf("peak resident %d bytes (%.1f MiB) exceeds -max-resident-bytes %d",
				peak, float64(peak)/(1<<20), o.maxResident)
		}
		log.Printf("resident gate OK: peak %.1f MiB <= ceiling %.1f MiB",
			float64(peak)/(1<<20), float64(o.maxResident)/(1<<20))
	}
	return nil
}

// dataset is a dataSpec made real: fill loads it into one more catalog,
// partitioned identically every time — each shard server, the single
// node and the identity twin all hold the same global partition — query
// is a sensible base query vector for it, and cleanup removes what it
// left on disk.
type dataset struct {
	query   []float64
	fill    func(*service.Catalog) error
	cleanup func()
}

// newDataset generates the relations and, for relfiles, writes them to
// a temp directory and drops the build-time copies: every catalog then
// maps the same files, so the serving process's resident set reflects
// only what queries touch.
func newDataset(d dataSpec) (*dataset, error) {
	ds := &dataset{cleanup: func() {}}
	var rels []*proxrank.Relation
	if d.tuples > 0 {
		gcfg := proxrank.DefaultSyntheticConfig()
		gcfg.BaseTuples, gcfg.Dim, gcfg.Seed = d.tuples, d.dim, 11
		var err error
		if rels, err = proxrank.SyntheticRelations(gcfg); err != nil {
			return nil, err
		}
		ds.query = make([]float64, d.dim) // the shared region is centered at the origin
	} else {
		cityRels, landmark, _, err := proxrank.CityDataset(strings.ToUpper(d.city))
		if err != nil {
			return nil, err
		}
		rels, ds.query = cityRels, landmark
	}
	if !d.relfile {
		ds.fill = func(cat *service.Catalog) error {
			for _, rel := range rels {
				if err := cat.RegisterSharded(rel.Name, rel, d.shards, d.strategy); err != nil {
					return err
				}
			}
			return nil
		}
		return ds, nil
	}
	dir, err := os.MkdirTemp("", "proxload-relfile-*")
	if err != nil {
		return nil, err
	}
	ds.cleanup = func() { _ = os.RemoveAll(dir) }
	paths := make(map[string]string, len(rels))
	for i, rel := range rels {
		shards := d.shards
		if shards == 0 {
			shards = proxrank.AutoShardCount(rel.Len())
		}
		sharded, err := proxrank.NewShardedRelation(rel, shards, d.strategy)
		if err == nil {
			paths[rel.Name] = filepath.Join(dir, fmt.Sprintf("r%d%s", i, proxrank.RelFileExtension))
			err = proxrank.SaveRelFile(paths[rel.Name], sharded)
		}
		if err != nil {
			ds.cleanup()
			return nil, err
		}
	}
	// Hand the build-time pages back to the OS so the resident gauge
	// measures serving, not generation.
	rels = nil
	debug.FreeOSMemory()
	ds.fill = func(cat *service.Catalog) error {
		for name, path := range paths {
			if err := cat.LoadRelFile(name, path); err != nil {
				return err
			}
		}
		return nil
	}
	return ds, nil
}

// deployment is a running -selfserve topology: front answers HTTP on
// url — the single node, or the coordinator over the shard servers that
// precede it in nodes.
type deployment struct {
	url   string
	front *service.Node
	nodes []*service.Node
	http  *http.Server
	data  *dataset
}

// startSelfServe opens topo.servers shard-server nodes and the front
// node — servers+1 service.Open calls, the same bring-up `proxserve
// -shard-server` × n plus `proxserve -coordinator` runs across processes
// — and serves the front node's handler on a loopback port. It owns data
// from the call on.
func startSelfServe(data *dataset, topo topology, sndbuf int, cfg service.Config) (_ *deployment, err error) {
	d := &deployment{data: data}
	defer func() {
		if err != nil {
			d.shutdown()
		}
	}()
	open := func(nc service.NodeConfig, loaded bool) (*service.Node, error) {
		cat := service.NewCatalog()
		if loaded {
			if err := data.fill(cat); err != nil {
				return nil, err
			}
		}
		nc.Config = cfg
		n, err := service.Open(context.Background(), cat, nc)
		if err == nil {
			d.nodes = append(d.nodes, n)
		}
		return n, err
	}
	var front service.NodeConfig
	for i := 0; i < topo.servers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if i == 0 && topo.chaos != nil {
			ln = topo.chaos.Listener(ln)
		}
		own := service.Ownership{Index: i, Count: topo.servers, Replicas: topo.replicas}
		n, err := open(service.NodeConfig{RPCListener: ln, Own: own}, true)
		if err != nil {
			return nil, err
		}
		front.Peers = append(front.Peers, n.RPCAddr)
	}
	// A single node holds the data itself; a coordinator's catalog fills
	// from what its peers advertise.
	if d.front, err = open(front, topo.servers == 0); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	if sndbuf > 0 {
		ln = clampSndbufListener(ln, sndbuf)
	}
	d.http = &http.Server{Handler: d.front.Handler()}
	go func() { _ = d.http.Serve(ln) }()
	return d, nil
}

// shutdown stops HTTP, then the nodes front first, then removes the
// data set's files.
func (d *deployment) shutdown() {
	if d.http != nil {
		_ = d.http.Close()
	}
	for i := len(d.nodes) - 1; i >= 0; i-- {
		d.nodes[i].Close()
	}
	d.data.cleanup()
}

// identityQueries is the size of the fixed query set -identity-check
// replays: the landmark plus deterministic offsets around it, each at a
// different K, batch path, default algorithm and access.
const identityQueries = 8

// identityCheck replays the fixed query set against the front node's
// executor and a freshly built single-node twin of the same data,
// failing on the first byte-level difference between the canonical
// responses (service.CanonicalResponse: wall-clock cost and the cached
// marker excluded — everything else, float score bits included, must
// match).
func (d *deployment) identityCheck(cfg service.Config) error {
	cfg.CacheSize = -1 // compare engine answers, not cache luck
	twinCat := service.NewCatalog()
	if err := d.data.fill(twinCat); err != nil {
		return err
	}
	twin := service.NewExecutor(twinCat, cfg)
	relations := twinCat.Names()
	if len(relations) > 2 {
		relations = relations[:2]
	}
	for i := 0; i < identityQueries; i++ {
		vec := make([]float64, len(d.data.query))
		for j, b := range d.data.query {
			vec[j] = b + 0.01*float64(i-identityQueries/2)*float64(j+1)
		}
		req := &api.Request{Query: vec, Relations: relations, K: 2 + i%5}
		want, err := twin.Execute(context.Background(), req)
		if err != nil {
			return fmt.Errorf("query %d: single-node twin: %w", i, err)
		}
		got, err := d.front.Executor.Execute(context.Background(), req)
		if err != nil {
			return fmt.Errorf("query %d: served deployment: %w", i, err)
		}
		if w, g := service.CanonicalResponse(want), service.CanonicalResponse(got); w != g {
			return fmt.Errorf("query %d: responses differ\nsingle-node: %s\nserved:      %s", i, w, g)
		}
	}
	return nil
}

// waitReady blocks until the target answers GET /v1/readyz with 200 —
// the startup gate that keeps the load run from measuring index builds
// or an uncovered fleet as query latency. Any other answer keeps it
// waiting, a 404 included: every target runs this build (the
// no-negotiation rule internal/shardrpc/wire.go states), so a server
// without the endpoint is not one to fall back to liveness for.
func waitReady(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (GET /v1/readyz)", budget)
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
		Relations []service.RelationInfo `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/relations: %w", err)
	}
	if len(body.Relations) < 2 {
		return nil, fmt.Errorf("server has %d relations; need at least 2 (or pass -rel)", len(body.Relations))
	}
	return []string{body.Relations[0].Name, body.Relations[1].Name}, nil
}

// maxInflight caps concurrently outstanding requests: arrivals beyond
// it are shed. slowRcvbuf is the slow clients' socket receive buffer,
// small so that they exert real TCP backpressure.
const (
	maxInflight = 512
	slowRcvbuf  = 4096
)

// generator owns the load loop and its measurements.
type generator struct {
	client    *http.Client
	base      string
	relations []string
	k         int
	access    string
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
	req := api.Request{Query: vec, Relations: g.relations, K: g.k, Access: g.access}
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
// coalescing on. It reads every event of its answer, however slowly.
func (g *generator) slowClient(ctx context.Context, client *http.Client, rng *rand.Rand, slowRead time.Duration) {
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
			if _, err := br.ReadBytes('\n'); err != nil {
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
	ElapsedSec   float64        `json:"elapsedSec"`
	OfferedRPS   float64        `json:"offeredRps"`
	AchievedRPS  float64        `json:"achievedRps"`
	Shed         int64          `json:"shed"`
	Errors       int            `json:"errors"`
	ErrorsByCode map[string]int `json:"errorsByCode,omitempty"`
	FirstError   string         `json:"firstError,omitempty"`
	Batch        latencyMs      `json:"batch"`
	Stream       latencyMs      `json:"stream"`
	TTFE         latencyMs      `json:"ttfe"`
	// Server is the run's growth of every /metrics counter family,
	// summed over label sets (see counterDeltas).
	Server map[string]float64 `json:"serverDelta"`
	// ServerDuration/ServerTTFE are the run's deltas of the server's own
	// /metrics histograms (all modes and cache states folded together) —
	// the executor's view of the same requests the client percentiles
	// time from the outside.
	ServerDuration serverHist `json:"serverDurationHist"`
	ServerTTFE     serverHist `json:"serverTtfeHist"`
	// ResidentPeakBytes is the largest proxrank_process_resident_bytes
	// sample observed while the load ran (0 when the server exposes no
	// gauge).
	ResidentPeakBytes int64 `json:"residentPeakBytes,omitempty"`
}

func (g *generator) report(elapsed time.Duration, server map[string]float64) report {
	g.mu.Lock()
	defer g.mu.Unlock()
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
		Server:       server,
	}
	if g.firstEr != nil {
		r.FirstError = g.firstEr.Error()
	}
	return r
}

func (r report) print(w io.Writer) {
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
	d := func(family string) int64 { return int64(r.Server["proxrank_"+family+"_total"]) }
	queries, hits := d("queries"), d("cache_hits")
	fmt.Fprintf(w, "  server delta: queries %d, cacheHits %d (%.0f%%), coalesced %d, engineRuns %d\n",
		queries, hits, pct(hits, queries), d("coalesced"), d("engine_runs"))
	fmt.Fprintf(w, "                brokered %d, midRunAttaches %d, rejected %d, canceled %d\n",
		d("streams_brokered"), d("stream_midrun_attaches"), d("rejected"), d("canceled"))
	if opened, pruned := d("remote_streams_opened"), d("shards_pruned"); opened > 0 || pruned > 0 {
		fetched, consumed := d("rpc_rows"), d("remote_rows_consumed")
		fmt.Fprintf(w, "                remoteStreamsOpened %d, shardsPruned %d (%.0f%% of remote shard sources)\n",
			opened, pruned, pct(pruned, pruned+opened))
		fmt.Fprintf(w, "                remoteRowsFetched %d for %d consumed (%.1f fetched per row used)\n",
			fetched, consumed, float64(fetched)/float64(max(consumed, 1)))
	}
	if r.ResidentPeakBytes > 0 {
		fmt.Fprintf(w, "  server resident peak: %.1f MiB\n", float64(r.ResidentPeakBytes)/(1<<20))
	}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
