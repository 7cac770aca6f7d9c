package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/service"
)

// TestFlagTable pins the command line: what each combination parses to,
// and the message each refused one exits 2 with. Every -selfserve row
// used to run — on city data whatever it asked for, or with the flag
// ignored.
func TestFlagTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    string
		wantErr string // refused: run exits 2 and says this
		check   func(t *testing.T, o *options)
	}{
		{name: "topology without selfserve", args: "-topology coord:2", wantErr: "require -selfserve"},
		{name: "identity without selfserve", args: "-identity-check", wantErr: "require -selfserve"},
		{name: "chaos without selfserve", args: "-chaos verb=pull;action=reset", wantErr: "require -selfserve"},
		{name: "replicas without selfserve", args: "-replicas 2", wantErr: "require -selfserve"},
		{name: "unknown topology", args: "-selfserve -topology ring", wantErr: `-topology "ring": want single or coord:N`},
		{name: "coordinator over nothing", args: "-selfserve -topology coord:0", wantErr: `-topology "coord:0": want single or coord:N with N >= 1`},
		{name: "more replicas than servers", args: "-selfserve -topology coord:2 -replicas 3", wantErr: "-replicas 3: want 1 <= r <= 2"},
		{name: "chaos on a single node", args: "-selfserve -chaos verb=pull;action=reset", wantErr: "-chaos/-replicas need -topology coord:N"},
		{name: "replicas on a single node", args: "-selfserve -replicas 2", wantErr: "-chaos/-replicas need -topology coord:N"},
		{name: "chaos malformed", args: "-selfserve -topology coord:2 -chaos verb", wantErr: "invalid value"},
		{name: "query-base malformed", args: "-query-base 1,x", wantErr: "invalid value"},

		{name: "external target", args: "-addr http://h:1 -k 2 -hot 0 -query-spread 0.001 -query-base 37.81,-122.51 -max-error-rate 0", check: func(t *testing.T, o *options) {
			g := o.gen
			if o.selfserve || o.addr != "http://h:1" || g.k != 2 || g.hotFr != 0 || g.spread != 0.001 ||
				!reflect.DeepEqual(g.baseVec, []float64{37.81, -122.51}) || o.maxErrFr != 0 {
				t.Errorf("options %+v, generator %+v", o, g)
			}
		}},
		{name: "single defaults", args: "-selfserve", check: func(t *testing.T, o *options) {
			// A single node picks the shard count from the relation's size:
			// the -shards default is the coord topology's.
			want := dataSpec{city: "SF", dim: 8, shards: 0}
			if o.data != want || o.topo != (topology{replicas: 1}) {
				t.Errorf("data %+v topo %+v, want %+v", o.data, o.topo, want)
			}
			wantCfg := service.Config{CacheSize: service.DefaultCacheSize, DefaultTimeout: 10 * time.Second}
			if o.cfg != wantCfg {
				t.Errorf("config %+v, want %+v", o.cfg, wantCfg)
			}
		}},
		{name: "single relfile", args: "-selfserve -selfserve-tuples 60000 -selfserve-dim 8 -selfserve-relfile -cache -1 -workers 4", check: func(t *testing.T, o *options) {
			want := dataSpec{city: "SF", tuples: 60000, dim: 8, relfile: true, shards: 0}
			if o.data != want || o.cfg.CacheSize != -1 || o.cfg.Workers != 4 {
				t.Errorf("data %+v cfg %+v, want %+v", o.data, o.cfg, want)
			}
		}},
		{name: "single with an explicit layout", args: "-selfserve -shards 3 -identity-check", check: func(t *testing.T, o *options) {
			if o.data.shards != 3 || !o.identity {
				t.Errorf("data %+v identity %v: an explicit -shards must take effect", o.data, o.identity)
			}
		}},
		{name: "coord defaults", args: "-selfserve -topology coord:3", check: func(t *testing.T, o *options) {
			want := dataSpec{city: "SF", dim: 8, shards: 6}
			if o.data != want || o.topo != (topology{servers: 3, replicas: 1}) {
				t.Errorf("data %+v topo %+v", o.data, o.topo)
			}
		}},
		{name: "coord over synthetic relfiles", args: "-selfserve -topology coord:2 -selfserve-tuples 2000 -selfserve-dim 4 -selfserve-relfile -shards 5", check: func(t *testing.T, o *options) {
			want := dataSpec{city: "SF", tuples: 2000, dim: 4, relfile: true, shards: 5}
			if o.data != want || o.topo.servers != 2 {
				t.Errorf("data %+v topo %+v, want %+v: the data source is independent of the topology", o.data, o.topo, want)
			}
		}},
		{name: "coord chaos (ci.yml)", args: "-selfserve -topology coord:2 -replicas 2 -chaos verb=pull;action=delay;delay=20ms;every=8 -duration 2s -rate 20 -identity-check -max-error-rate 0", check: func(t *testing.T, o *options) {
			if o.topo.servers != 2 || o.topo.replicas != 2 || o.topo.chaos == nil || len(o.topo.chaos.Rules()) != 1 || !o.identity ||
				o.duration != 2*time.Second || o.rate != 20 {
				t.Errorf("topo %+v identity %v duration %v rate %v", o.topo, o.identity, o.duration, o.rate)
			}
		}},
		{name: "server knobs", args: "-selfserve -server-sndbuf 4096 -timeout 3s", check: func(t *testing.T, o *options) {
			if o.sndbuf != 4096 || o.cfg.DefaultTimeout != 3*time.Second || o.timeout != 3*time.Second {
				t.Errorf("cfg %+v sndbuf %d timeout %v", o.cfg, o.sndbuf, o.timeout)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := strings.Fields(tc.args)
			var stdout, stderr bytes.Buffer
			if tc.wantErr != "" {
				if code := run(args, &stdout, &stderr); code != 2 {
					t.Fatalf("exit status %d, want 2", code)
				}
				if !strings.Contains(stderr.String(), tc.wantErr) {
					t.Fatalf("stderr %q does not say %q", stderr.String(), tc.wantErr)
				}
				return
			}
			o, err := parseFlags(args, &stderr)
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			tc.check(t, o)
		})
	}
}

// TestFlagSurface: the flag set is the regression surface of ci.yml and
// the studies in EXPERIMENTS.md — 31 flags, and -h is not a failure.
func TestFlagSurface(t *testing.T) {
	var stdout, usage bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &usage); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	flags := 0
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags++
		}
	}
	if flags != 31 {
		t.Fatalf("%d flags, want 31:\n%s", flags, usage.String())
	}
}

// TestRunSelfServe drives the whole command the way the CI smoke steps
// do, in half a second each: a single node, and a replicated coord:2
// deployment with the identity gate on — over city data and over
// synthetic relfiles, which -topology coord:N used to ignore.
func TestRunSelfServe(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"single", "-selfserve -slow-clients 1 -k 20"},
		{"coord2 replicated identity", "-selfserve -topology coord:2 -replicas 2 -identity-check"},
		{"coord2 synthetic relfile identity", "-selfserve -topology coord:2 -selfserve-tuples 300 -selfserve-dim 4 -selfserve-relfile -identity-check"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jsonPath := filepath.Join(t.TempDir(), "report.json")
			args := append(strings.Fields(tc.args), "-duration", "400ms", "-rate", "60", "-max-error-rate", "0", "-json", jsonPath)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit status %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
			}
			if !strings.Contains(stdout.String(), "proxload report") {
				t.Fatalf("no report on stdout: %q", stdout.String())
			}
			buf, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			var rep report
			if err := json.Unmarshal(buf, &rep); err != nil {
				t.Fatal(err)
			}
			queries, opened := rep.Server["proxrank_queries_total"], rep.Server["proxrank_remote_streams_opened_total"]
			if rep.Errors != 0 || rep.Batch.Count+rep.Stream.Count == 0 || queries == 0 {
				t.Fatalf("report: errors %d, batch %d, stream %d, server queries %v", rep.Errors, rep.Batch.Count, rep.Stream.Count, queries)
			}
			if coord := strings.Contains(tc.args, "coord:"); coord != (opened > 0) {
				t.Fatalf("remote streams opened %v on a run with coordinator=%v", opened, coord)
			}
		})
	}
}

// TestSelfServeServesWhatWasAsked: the data source reaches the served
// catalog through either topology — 300-tuple synthetic relations behind
// a coordinator are remote entries of 300 tuples, not city data.
func TestSelfServeServesWhatWasAsked(t *testing.T) {
	var stderr bytes.Buffer
	o, err := parseFlags(strings.Fields("-selfserve -topology coord:2 -selfserve-tuples 300 -selfserve-dim 4"), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := newDataset(o.data)
	if err != nil {
		t.Fatal(err)
	}
	deploy, err := startSelfServe(data, o.topo, o.sndbuf, o.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer deploy.shutdown()
	resp, err := http.Get(deploy.url + "/v1/relations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Relations []service.RelationInfo `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Relations) < 2 {
		t.Fatalf("relations %+v", body.Relations)
	}
	for _, ri := range body.Relations {
		if !ri.Remote || ri.Tuples != 300 || ri.Dim != 4 || ri.Shards != 6 || len(ri.Owners) != 2 {
			t.Fatalf("relation %+v: want a remote 300-tuple dim-4 relation in 6 shards on 2 servers", ri)
		}
	}
}

// TestWaitReadyNeedsReadyz: a target without /v1/readyz fails the wait;
// liveness is not readiness, and no target predates the endpoint.
func TestWaitReadyNeedsReadyz(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if err := waitReady(ts.Client(), ts.URL, 250*time.Millisecond); err == nil {
		t.Fatal("a 404 from /v1/readyz passed the wait on liveness")
	}
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	if err := waitReady(ts.Client(), ts.URL, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSummarize pins the percentile index on the sample sizes where an
// off-by-one shows: int(p·(n−1)) into the sorted sample.
func TestSummarize(t *testing.T) {
	ms := func(v ...float64) []float64 {
		for i := range v {
			v[i] *= 1e6
		}
		return v
	}
	if got := summarize(nil); got != (latencyMs{}) {
		t.Fatalf("empty sample: %+v", got)
	}
	if got, want := summarize(ms(7)), (latencyMs{Count: 1, P50: 7, P95: 7, P99: 7, Mean: 7, Max: 7}); got != want {
		t.Fatalf("1 sample: %+v, want %+v", got, want)
	}
	// n = 2: every percentile below 100 indexes element 0.
	if got, want := summarize(ms(9, 3)), (latencyMs{Count: 2, P50: 3, P95: 3, P99: 3, Mean: 6, Max: 9}); got != want {
		t.Fatalf("2 samples: %+v, want %+v", got, want)
	}
	// n = 100, values 100..1 ms: sorted[i] = i+1; indexes 49, 94, 98.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got, want := summarize(ms(hundred...)), (latencyMs{Count: 100, P50: 50, P95: 95, P99: 99, Mean: 50.5, Max: 100}); got != want {
		t.Fatalf("100 samples: %+v, want %+v", got, want)
	}
}

// TestHistSnap checks delta and quantile against hand-computed
// cumulative buckets, the +Inf arm included.
func TestHistSnap(t *testing.T) {
	inf := math.Inf(+1)
	snap := func(count int64, sum float64, buckets map[float64]int64) *metricsSnap {
		return &metricsSnap{hists: map[string]*histSnap{"h": {buckets: buckets, count: count, sum: sum}}}
	}
	before := snap(10, 1.0, map[float64]int64{0.1: 4, 0.5: 8, 1: 10, inf: 10})
	after := snap(30, 9.0, map[float64]int64{0.1: 8, 0.5: 18, 1: 26, inf: 30})
	d := after.delta(before, "h")
	// The run's own 20 observations: 4 ≤ 0.1, 10 ≤ 0.5, 16 ≤ 1, 20 in all.
	if want := (histSnap{count: 20, sum: 8.0, buckets: map[float64]int64{0.1: 4, 0.5: 10, 1: 16, inf: 20}}); !reflect.DeepEqual(d, want) {
		t.Fatalf("delta %+v, want %+v", d, want)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.10, 0.05},        // rank 2 of the 4 in (0, 0.1]
		{0.20, 0.1},         // rank 4: the first bucket's upper bound
		{0.50, 0.5},         // rank 10: the second bucket's upper bound
		{0.65, 0.5 + 0.25},  // rank 13, 3 of the 6 in (0.5, 1]
		{0.95, 1},           // rank 19 lands in +Inf: its lower bound
		{1.00, 1},           // so does the maximum
		{0.35, 0.1 + 0.2},   // rank 7, 3 of the 6 in (0.1, 0.5]
		{0.80, 0.5 + 0.5},   // rank 16: the last finite bound
		{0.05, 0.1 * 1 / 4}, // rank 1 of 4
	} {
		if got := d.quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := summarizeHist(d); got.Count != 20 || math.Abs(got.P50Ms-500) > 1e-9 || got.P95Ms != 1000 || got.P99Ms != 1000 || math.Abs(got.MeanMs-400) > 1e-9 {
		t.Errorf("summary %+v, want count 20, p50 500 ms, p95 and p99 1000 ms, mean 400 ms", got)
	}
	// A family the earlier scrape lacks is all new; one the later scrape
	// lacks is empty; an empty histogram has no quantiles.
	if d := after.delta(&metricsSnap{hists: map[string]*histSnap{}}, "h"); d.count != 30 || d.buckets[0.5] != 18 {
		t.Errorf("delta against a scrape without the family: %+v", d)
	}
	if d := after.delta(before, "absent"); d.count != 0 || d.quantile(0.5) != 0 || summarizeHist(d) != (serverHist{}) {
		t.Errorf("absent family: %+v", d)
	}
}

// TestCounterDeltas: the server delta is the run's growth of every
// counter family, summed over label sets; gauges are left out — "after
// minus before" of an instant or a peak means nothing, and the -json
// report used to carry exactly that.
func TestCounterDeltas(t *testing.T) {
	before := &metricsSnap{scalar: map[string]float64{
		"proxrank_queries_total":      100,
		"proxrank_engine_runs_total":  40,
		"proxrank_rpc_rows_total":     1000, // summed over two peers
		"proxrank_in_flight":          5,
		"proxrank_stream_subscribers": 3,
	}}
	after := &metricsSnap{scalar: map[string]float64{
		"proxrank_queries_total":        160,
		"proxrank_engine_runs_total":    55,
		"proxrank_rpc_rows_total":       1750,
		"proxrank_engine_seconds_total": 0.5, // absent before: all new
		"proxrank_in_flight":            2,
		"proxrank_stream_subscribers":   1,
		"proxrank_catalog_relations":    3,
	}}
	want := map[string]float64{
		"proxrank_queries_total":        60,
		"proxrank_engine_runs_total":    15,
		"proxrank_rpc_rows_total":       750,
		"proxrank_engine_seconds_total": 0.5,
	}
	if got := after.counterDeltas(before); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta %v\nwant  %v", got, want)
	}
}
