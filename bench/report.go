package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
)

// resultLine is the last line of standard output: the machine-readable
// verdict of one invocation.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the report as the result line: the end-to-end metrics of
// an untraced invocation, the per-layer metrics of a traced one.
func (r *runReport) result() resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if r.cfg.trace {
		for _, d := range perLayer() {
			out.Metrics[d.name] = metricValue{r.layers[d.name], d.unit}
		}
		return out
	}
	for _, d := range endToEnd {
		out.Metrics[d.name] = metricValue{r.e2e[d.name], d.unit}
	}
	return out
}

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit string

// gitCommit is the revision the binary was built from: run.sh's stamp, or
// the toolchain's own when the build ran inside a git checkout.
func gitCommit() string {
	if commit != "" {
		return commit
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes the human-readable report: environment, failure
// accounting, every metric by name with its unit, and the replay ledger.
func (r *runReport) print(w io.Writer) {
	cfg := r.cfg
	fmt.Fprintf(w, "workload %s  seed %d  N %d  clients %d (closed loop)  nominal %.0fs  traced %v\n",
		cfg.w.name, cfg.seed, r.n, cfg.clients, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "environment: GOMAXPROCS %d  NumCPU %d  %s  %s/%s  commit %s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitCommit())
	fmt.Fprintf(w, "timed window %.2fs; set-up runs %.3f s\n", r.wall.Seconds(), r.setupRuns)

	fmt.Fprintf(w, "requests: attempted %d  succeeded %d  failed %d  unissued at deadline %d\n",
		r.attempted, r.attempted-r.failed, r.failed, r.unissued)
	for _, c := range slices.Sorted(maps.Keys(r.classes)) {
		t := r.classes[c]
		fmt.Fprintf(w, "  class %-7s attempted %6d  succeeded %6d  failed %d\n", c, t.attempted, t.succeeded, t.failed)
	}
	for _, c := range slices.Sorted(maps.Keys(r.failures)) {
		fmt.Fprintf(w, "  failures %-14s %d\n", c, r.failures[c])
	}
	if r.firstFail != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.firstFail)
	}
	fmt.Fprintf(w, "oracles: %d sampled responses equal the single-node twin (%d of them served from cache), %d spill/prune pairs byte-identical\n",
		r.oracle.compared, r.oracle.cachedSeen, r.oracle.pairs)
	fmt.Fprintf(w, "samples: latency %d (p%d has %d beyond it, p99 %d), ttfe %d\n",
		r.samples["latency"], tailPercentile, r.samples["p95_beyond"], r.samples["p99_beyond"], r.samples["ttfe"])
	wr := r.wholeRun
	fmt.Fprintf(w, "whole window: qps %.4f  cpu_ms_per_query %.4f (the end-to-end figures are medians over the run's %d slices)\n",
		wr["qps"], wr["cpu_ms_per_query"], blocks)
	fmt.Fprintf(w, "latency tail: p90 %.4f  p99 %.4f  max %.4f ms\n", wr["p90_ms"], wr["p99_ms"], wr["max_ms"])

	fmt.Fprintln(w, "end-to-end (untraced loop):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", d.name, r.e2e[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-22s %14.6f ratio\n", "error_rate", ratio(float64(r.failed), float64(r.attempted)))
	if !cfg.trace {
		return
	}
	fmt.Fprintln(w, "per-layer (0 = the layer is off this workload's path):")
	for _, d := range perLayer() {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.name, r.layers[d.name], d.unit)
	}
	for _, line := range r.ledger {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "spans written to %s\n", r.traceOut)
}

// writeResult prints the result line; it must be the last line of stdout.
func writeResult(w io.Writer, res resultLine) error {
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}
