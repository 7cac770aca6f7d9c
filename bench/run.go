package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	proxrank "repro"
	"repro/internal/relfile"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	clients int
	// tuples and n override the workload's data size and request count
	// (0 = the workload's own); the smoke tests scale both down.
	tuples int
	n      int
	// singleSetup sets the program up once instead of the repeated set-ups
	// setup_s is the median of: for traced runs, which do not report it.
	singleSetup bool
	tmpDir      string
	traceOut    string
}

// warmupRequests is the length of the warm-up pass that ends each set-up;
// warmupSeedSalt separates its request stream from the timed one.
const (
	warmupRequests = 50
	warmupSeedSalt = 0x5eed0ff
)

// The program is set up minSetups times at least and setup_s is the median
// (the last set-up serves the run). A set-up that takes a fraction of a
// second is a noisy sample, so quick ones repeat until they add up to
// setupBudget, at most maxSetups times.
const (
	minSetups   = 3
	setupBudget = 3 * time.Second
	maxSetups   = 9
)

// runDeadline is the hard stop of a closed-loop pass sized for a nominal
// duration: three times over, plus slack for the smallest runs. Requests
// unissued by then count as failed.
func runDeadline(seconds float64) time.Duration {
	return time.Duration(3*seconds*float64(time.Second)) + 10*time.Second
}

// classTally is attempted/succeeded/failed for one request class.
type classTally struct {
	attempted, succeeded, failed int
}

// runReport is everything one invocation measured.
type runReport struct {
	cfg       runConfig
	n         int
	wall      time.Duration
	e2e       map[string]float64
	layers    map[string]float64 // traced runs only
	classes   map[string]*classTally
	failures  map[string]int // by api.Error code or failure bucket
	firstFail string
	unissued  int
	attempted int
	failed    int
	samples   map[string]int     // per-percentile sample counts
	wholeRun  map[string]float64 // whole-window qps and cpu beside the slice medians, and more of the latency tail
	oracle    oracleTally
	ledger    []string
	traceOut  string
	setupRuns []float64
}

// setUp builds the topology and warms it up; the elapsed time is one
// setup_s sample. Input preparation is not part of it.
func setUp(w *workload, clients int, in *inputs, warm []request) (*topology, time.Duration, error) {
	start := time.Now()
	topo, err := buildTopology(w, in)
	if err != nil {
		return nil, 0, err
	}
	res := drive(topo, warm, in.rels, clients, 0, runDeadline(10))
	for i := range res.outcomes {
		if o := &res.outcomes[i]; o.fail != "" {
			topo.close()
			return nil, 0, fmt.Errorf("warm-up request %d (%s) failed: %s: %s", i, warm[i].class, o.fail, o.detail)
		}
	}
	return topo, time.Since(start), nil
}

// run executes one workload end to end: prepare inputs, set the program
// up (several times, keeping the last), drive the timed closed loop,
// check the answers, and — with cfg.trace — repeat the loop traced, walk
// the replay ledger and run the micro set.
func run(cfg runConfig) (*runReport, error) {
	w := cfg.w
	if cfg.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%d clients on %d CPUs: the clients would queue behind each other, not behind the server", cfg.clients, runtime.NumCPU())
	}
	if cfg.tuples > 0 {
		w = w.sized(cfg.tuples)
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // the untraced and the traced loop share --seconds
	}
	n := cfg.n
	if n == 0 {
		n = w.requestCount(seconds)
	}

	dir, err := os.MkdirTemp(cfg.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := prepareInputs(w, dir)
	if err != nil {
		return nil, err
	}
	reqs, err := w.requests(cfg.seed, n, false)
	if err != nil {
		return nil, err
	}
	warm, err := w.requests(cfg.seed^warmupSeedSalt, warmupRequests, false)
	if err != nil {
		return nil, err
	}
	for i := range warm {
		warm[i].replace = false
	}

	rep := &runReport{cfg: cfg, n: n, e2e: map[string]float64{}}
	var topo *topology
	var setupTotal time.Duration
	for s := 0; s == 0 || (!cfg.singleSetup && (s < minSetups || (s < maxSetups && setupTotal < setupBudget))); s++ {
		if topo != nil {
			topo.close()
		}
		runtime.GC() // every set-up starts from the same heap
		var took time.Duration
		topo, took, err = setUp(w, cfg.clients, in, warm)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTotal += took
		rep.setupRuns = append(rep.setupRuns, took.Seconds())
	}
	defer func() { topo.close() }()
	rep.e2e["setup_s"] = median(rep.setupRuns)

	// Hand build-time garbage back before the window opens, so
	// rss_peak_mib measures serving, not set-up.
	debug.FreeOSMemory()
	res := drive(topo, reqs, in.rels, cfg.clients, sampleEvery, runDeadline(seconds))
	rep.wall = res.wall

	twin, err := buildTwin(in.rels)
	if err != nil {
		return nil, fmt.Errorf("twin oracle: %w", err)
	}
	rep.oracle = verifySamples(twin, reqs, res.outcomes, sampleEvery)
	if w.cacheSize >= 0 && n >= 10*sampleEvery && rep.oracle.cachedSeen == 0 {
		return nil, fmt.Errorf("twin oracle saw no cached answer on %s: cached-versus-fresh identity went unchecked", w.name)
	}
	rep.tally(reqs, res)
	rep.endToEnd(reqs, res)
	if !cfg.trace {
		return rep, nil
	}

	// Traced pass: the same list with "trace": true on every request.
	rec := newSpanRecorder()
	rep.layers = map[string]float64{}
	for _, d := range perLayer() {
		rep.layers[d.name] = 0
	}
	traced, err := w.requests(cfg.seed, n, true)
	if err != nil {
		return nil, err
	}
	tres := drive(topo, traced, in.rels, cfg.clients, 0, runDeadline(seconds))
	rep.clientLayers(reqs, res, traced, tres, rec)

	led := newLedger()
	ctx := context.Background()
	for _, idx := range replaySelection(reqs, w.replayCap) {
		if err := led.replay(ctx, topo, w, in, idx, &reqs[idx], rec); err != nil {
			return nil, fmt.Errorf("replay request %d (%s): %w", idx, reqs[idx].class, err)
		}
	}
	led.metrics(reqs, rep.layers)
	rep.ledger = led.ledgerLines()

	if err := microSet(w.topology == topoCoord3, rep.layers); err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	rep.layers["datagen.generate_ms"] = in.generate.Seconds() * 1e3
	if w.topology == topoRelfile {
		if err := relfileLayers(in, w.tuples, rep.layers); err != nil {
			return nil, fmt.Errorf("relfile spans: %w", err)
		}
	}

	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(cfg.tmpDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	}
	if err := rec.writeFile(out); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.traceOut = out
	return rep, nil
}

// tally folds the outcomes into attempted/succeeded/failed per class and
// per failure code.
func (r *runReport) tally(reqs []request, res *driveResult) {
	r.classes = map[string]*classTally{}
	r.failures = map[string]int{}
	for i := range res.outcomes {
		o := &res.outcomes[i]
		c := r.classes[reqs[i].class]
		if c == nil {
			c = &classTally{}
			r.classes[reqs[i].class] = c
		}
		c.attempted++
		r.attempted++
		if o.fail == "" {
			c.succeeded++
			continue
		}
		c.failed++
		r.failed++
		r.failures[o.fail]++
		if o.fail == failUnissued {
			r.unissued++
		}
		if r.firstFail == "" {
			r.firstFail = fmt.Sprintf("request %d (%s): %s: %s", i, reqs[i].class, o.fail, o.detail)
		}
	}
}

// tailPercentile is the tail the benchmark reports beside the median: the
// highest round percentile with at least ten samples beyond it on the
// smallest workload (coord3_wire, N = 720 at the default --seconds).
const tailPercentile = 95

// endToEnd computes the user-visible metrics from the untraced loop.
// Throughput and CPU cost are medians over the run's slices (see blocks);
// the latency figures are order statistics over all requests already.
func (r *runReport) endToEnd(reqs []request, res *driveResult) {
	var lat, ttfe []float64
	depths := 0.0
	for i := range res.outcomes {
		o := &res.outcomes[i]
		if o.fail != "" {
			continue
		}
		lat = append(lat, o.latency.Seconds()*1e3)
		depths += float64(o.sumDepths)
		if reqs[i].stream {
			ttfe = append(ttfe, o.ttfe.Seconds()*1e3)
		}
	}
	sort.Float64s(lat)
	sort.Float64s(ttfe)
	done := float64(len(lat))
	qps, cpu := blockRates(res.marks, len(reqs))
	r.e2e["qps"] = median(qps) * ratio(done, float64(len(reqs)))
	r.e2e["p50_ms"] = percentile(lat, 50)
	r.e2e["p95_ms"] = percentile(lat, tailPercentile)
	r.e2e["ttfe_p50_ms"] = percentile(ttfe, 50)
	r.e2e["cpu_ms_per_query"] = median(cpu)
	r.e2e["rss_peak_mib"] = float64(res.rssPeak) / (1 << 20)
	r.e2e["sum_depths_per_query"] = ratio(depths, done)
	r.wholeRun = map[string]float64{
		"qps":              ratio(done, res.wall.Seconds()),
		"cpu_ms_per_query": ratio(res.cpu.Seconds()*1e3, float64(len(reqs))),
		"p90_ms":           percentile(lat, 90),
		"p99_ms":           percentile(lat, 99),
		"max_ms":           percentile(lat, 100),
	}
	r.samples = map[string]int{
		"latency":    len(lat),
		"p95_beyond": samplesBeyond(len(lat), tailPercentile),
		"p99_beyond": samplesBeyond(len(lat), 99),
		"ttfe":       len(ttfe),
	}
}

// blockRates turns the clock readings around each slice of the request
// list into per-slice throughput (requests/s) and CPU cost (ms/request).
func blockRates(marks []mark, n int) (qps, cpuMs []float64) {
	sort.Slice(marks, func(i, j int) bool { return marks[i].at.Before(marks[j].at) })
	size := (n + blocks - 1) / blocks
	for k := 1; k < len(marks); k++ {
		count := size
		if last := n - (k-1)*size; last < size {
			count = last
		}
		qps = append(qps, ratio(float64(count), marks[k].at.Sub(marks[k-1].at).Seconds()))
		cpuMs = append(cpuMs, ratio((marks[k].cpu-marks[k-1].cpu).Seconds()*1e3, float64(count)))
	}
	return qps, cpuMs
}

// clientLayers fills the client-side and counter-delta layer metrics:
// per-class and per-endpoint latency and Executor.Stats deltas from the
// untraced loop, the api.Trace phases and the tracing overhead from the
// traced loop, whose requests also become client spans.
func (r *runReport) clientLayers(reqs []request, res *driveResult, traced []request, tres *driveResult, rec *spanRecorder) {
	byClass := map[string][]float64{}
	var batch, stream []float64
	for i := range res.outcomes {
		o := &res.outcomes[i]
		if o.fail != "" {
			continue
		}
		ms := o.latency.Seconds() * 1e3
		byClass[reqs[i].class] = append(byClass[reqs[i].class], ms)
		if reqs[i].stream {
			stream = append(stream, ms)
		} else {
			batch = append(batch, ms)
		}
	}
	for class, ms := range byClass {
		r.layers["client."+class+".p50_ms"] = median(ms)
		r.layers["client."+class+".n"] = float64(len(ms))
	}
	r.layers["client.batch.p50_ms"] = median(batch)
	r.layers["client.stream.p50_ms"] = median(stream)
	r.layers["client.error_rate"] = ratio(float64(r.failed), float64(r.attempted))

	b, a := res.before, res.after
	queries := float64(a.Queries - b.Queries)
	r.layers["service.cache_hit_ratio"] = ratio(float64(a.CacheHits-b.CacheHits), queries)
	r.layers["service.coalesced"] = float64(a.Coalesced - b.Coalesced)
	r.layers["service.engine_runs"] = float64(a.EngineRuns - b.EngineRuns)
	var replaceMs []float64
	for _, d := range res.replaces {
		replaceMs = append(replaceMs, d.Seconds()*1e3)
	}
	r.layers["service.replace_ms"] = mean(replaceMs)
	opened := float64(a.RemoteStreamsOpened - b.RemoteStreamsOpened)
	pruned := float64(a.ShardsPruned - b.ShardsPruned)
	r.layers["shardrpc.streams_opened_per_query"] = ratio(opened, queries)
	r.layers["shardrpc.shards_pruned_ratio"] = ratio(pruned, opened+pruned)
	r.layers["shardrpc.retries"] = float64(res.peers.retries)
	r.layers["shardrpc.hedges"] = float64(res.peers.hedges)

	phases := map[string]float64{}
	tracedDone := 0
	for i := range tres.outcomes {
		o := &tres.outcomes[i]
		if o.fail != "" {
			continue
		}
		tracedDone++
		root := rec.add("client.request", i, 0, o.start, o.start.Add(o.latency))
		if traced[i].stream {
			rec.add("client.ttfe", i, root, o.start, o.start.Add(o.ttfe))
		}
		// The trace carries durations, not timestamps: lay the phases end
		// to end from the send time, in the causal order they arrive in.
		at := o.start
		for _, p := range o.phases {
			d := time.Duration(p.ElapsedMicros) * time.Microsecond
			rec.add("service.phase."+p.Name, i, root, at, at.Add(d))
			at = at.Add(d)
			phases[p.Name] += float64(p.ElapsedMicros)
		}
	}
	for _, p := range phaseNames {
		r.layers["service.phase."+p+"_us"] = ratio(phases[p], float64(tracedDone))
	}
	untracedQPS := r.e2e["qps"]
	tracedQPS := ratio(float64(tracedDone), tres.wall.Seconds())
	r.layers["trace.overhead_pct"] = 100 * ratio(untracedQPS-tracedQPS, untracedQPS)
}

// relfileLayers measures the storage tier's set-up spans from outside on
// a private mapping of the first relfile: open (map + validate), load
// (assemble the sharded view), and the first distance read of each shard,
// which builds that shard's R-tree lazily.
func relfileLayers(in *inputs, tuples int, out map[string]float64) error {
	out["relfile.write_ms"] = in.relfileWrite.Seconds() * 1e3
	out["relfile.bytes_per_tuple"] = ratio(float64(in.relfileBytes), float64(len(in.rels)*tuples))
	start := time.Now()
	f, err := relfile.Open(in.relfiles[0])
	if err != nil {
		return err
	}
	out["relfile.open_us"] = float64(time.Since(start).Nanoseconds()) / 1e3
	start = time.Now()
	sharded, err := f.Load(in.rels[0].Name)
	if err != nil {
		return err
	}
	out["relfile.load_us"] = float64(time.Since(start).Nanoseconds()) / 1e3
	query := make(proxrank.Vector, in.rels[0].Dim())
	start = time.Now()
	for s := 0; s < sharded.NumShards(); s++ {
		src, err := sharded.ShardSource(s, proxrank.DistanceAccess, query, nil, true)
		if err != nil {
			return err
		}
		if _, err := src.Next(); err != nil {
			return err
		}
	}
	out["relfile.first_touch_ms"] = time.Since(start).Seconds() * 1e3 / float64(sharded.NumShards())
	return nil
}
