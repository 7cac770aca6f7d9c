package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/api"
)

// loadManifest reads the BENCHMARK.json the driver reads.
func loadManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	got := loadManifest(t)
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with -manifest\n got: %+v\nwant: %+v", got, want)
	}
}

// The limits are the ones the benchmark contract refuses a file for.
func TestBenchmarkJSONWithinContractLimits(t *testing.T) {
	m := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if d.Bound == nil || *d.Bound < 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be within [0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end lacks {"name": "setup_s", "unit": "s", "better": "lower"}`)
	}
	for _, d := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not valid", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if d.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", m.RunSeconds)
	}
}

// smokeConfig scales a workload down to 2000 tuples and 40 requests.
func smokeConfig(t *testing.T, w *workload, trace bool) runConfig {
	return runConfig{w: w, seed: 1, seconds: 2, trace: trace, clients: 1, tuples: 2000, n: 40, singleSetup: true, tmpDir: t.TempDir()}
}

func metricNames(defs []manifestMetric) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	m := loadManifest(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			traced, err := run(smokeConfig(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := run(smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*runReport{traced, plain} {
				if rep.failed != 0 || rep.attempted != 40 {
					t.Fatalf("attempted %d failed %d (%s), want 40 and 0", rep.attempted, rep.failed, rep.firstFail)
				}
			}
			check := func(line resultLine, want map[string]string) {
				t.Helper()
				if !line.Correct || line.Failed != 0 || line.Attempted != 40 {
					t.Errorf("result line %+v, want correct with 40 attempted", line)
				}
				for name, unit := range want {
					v, ok := line.Metrics[name]
					if !ok {
						t.Errorf("metric %s is not emitted", name)
					} else if v.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, v.Unit, unit)
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(line.Metrics), len(want))
				}
			}
			check(plain.result(), metricNames(m.EndToEnd))
			check(traced.result(), metricNames(m.PerLayer))
			for _, d := range endToEnd {
				if plain.e2e[d.name] <= 0 {
					t.Errorf("%s = %v, want a positive number", d.name, plain.e2e[d.name])
				}
			}
			// Both runs issue the same request list (the traced run's
			// untraced loop is what its end-to-end numbers come from).
			if a, b := traced.e2e["sum_depths_per_query"], plain.e2e["sum_depths_per_query"]; a != b {
				t.Errorf("sum_depths_per_query %v then %v: must repeat exactly", a, b)
			}
			if plain.oracle.compared == 0 {
				t.Error("the twin oracle compared nothing")
			}
			if w.topology == topoRelfile && plain.oracle.pairs == 0 {
				t.Error("no spill/prune pair was compared")
			}
			if traced.layers["service.execute_miss_us"] <= 0 || traced.layers["core.run_us"] <= 0 {
				t.Error("the replay ledger measured nothing")
			}
			if _, err := os.Stat(traced.traceOut); err != nil {
				t.Errorf("span file: %v", err)
			}
			if got := traced.layers["shardrpc.pull_rtt_us"] > 0; got != (w.topology == topoCoord3) {
				t.Errorf("shardrpc.pull_rtt_us > 0 is %v on %s", got, w.name)
			}
		})
	}
}

func TestTooManyClientsIsRefused(t *testing.T) {
	w, _ := findWorkload("single_engine")
	cfg := smokeConfig(t, w, false)
	cfg.clients = 1 << 20
	if _, err := run(cfg); err == nil || !strings.Contains(err.Error(), "clients") {
		t.Errorf("run with 2^20 clients: err = %v, want a refusal", err)
	}
}

// oracleFixture answers one request with the twin itself and keeps the
// answer as wire bytes, the way drive keeps a sampled response.
func oracleFixture(t *testing.T) (*inputs, []request, []outcome) {
	t.Helper()
	w, _ := findWorkload("single_engine")
	small := w.sized(preflightTuples)
	in, err := prepareInputs(small, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := small.requests(1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := buildTwin(in.rels)
	if err != nil {
		t.Fatal(err)
	}
	req := reqs[0].req
	resp, err := twin.Execute(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return in, reqs, []outcome{{issued: true, raw: raw}}
}

func TestTwinOracleCatchesAFlippedByte(t *testing.T) {
	in, reqs, outcomes := oracleFixture(t)
	twin, err := buildTwin(in.rels)
	if err != nil {
		t.Fatal(err)
	}
	if tally := verifySamples(twin, reqs, outcomes, 1); tally.compared != 1 || outcomes[0].fail != "" {
		t.Fatalf("untouched answer: compared %d, fail %q (%s)", tally.compared, outcomes[0].fail, outcomes[0].detail)
	}
	// One more unit of depth: still valid JSON, no longer the same answer.
	flipped := bytes.Replace(outcomes[0].raw, []byte(`"sumDepths":`), []byte(`"sumDepths":1`), 1)
	if bytes.Equal(flipped, outcomes[0].raw) {
		t.Fatal("fixture has no sumDepths field to flip")
	}
	outcomes[0] = outcome{issued: true, raw: flipped}
	verifySamples(twin, reqs, outcomes, 1)
	if outcomes[0].fail != failWrong {
		t.Errorf("flipped answer passed the twin oracle (fail = %q)", outcomes[0].fail)
	}
}

func TestNaiveOracleCatchesAWrongAnswer(t *testing.T) {
	in, reqs, outcomes := oracleFixture(t)
	var resp api.Response
	if err := json.Unmarshal(outcomes[0].raw, &resp); err != nil {
		t.Fatal(err)
	}
	if err := compareNaive(in.rels, &reqs[0].req, &resp); err != nil {
		t.Fatalf("untouched answer: %v", err)
	}
	resp.Results[0], resp.Results[1] = resp.Results[1], resp.Results[0]
	if err := compareNaive(in.rels, &reqs[0].req, &resp); err == nil {
		t.Error("an answer with ranks 1 and 2 swapped passed the Naive oracle")
	}
	resp.Results[0], resp.Results[1] = resp.Results[1], resp.Results[0]
	resp.Results[3].Tuples[0].ID = "r1_nobody"
	if err := compareNaive(in.rels, &reqs[0].req, &resp); err == nil {
		t.Error("an answer naming a tuple that is not there passed the Naive oracle")
	}
	resp.Results = resp.Results[:len(resp.Results)-1]
	if err := compareNaive(in.rels, &reqs[0].req, &resp); err == nil {
		t.Error("an answer one result short passed the Naive oracle")
	}
}
