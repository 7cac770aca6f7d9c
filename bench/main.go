// Command bench is the repository's benchmark: four closed-loop workloads
// driven over loopback HTTP against an in-process proxserve topology,
// eight end-to-end metrics, and a per-layer ledger measured from outside
// the program. See README.md in this directory for the metric and
// workload tables; BENCHMARK.json at the repository root names them for
// the driver.
//
//	bash bench/run.sh --workload single_engine --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload coord3_wire --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh -check                 # Naive pre-flight, all workloads
//	bash bench/run.sh -selfcheck             # run each workload twice, compare
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: single_engine, hot_stream, coord3_wire or relfile_spill")
		seed      = flag.Int64("seed", 1, "seed of the request list (query vectors, hot-key draws); the data never depends on it")
		seconds   = flag.Float64("seconds", defaultSeconds, "nominal length of the timed part; fixes the request count N = rate × seconds")
		trace     = flag.Int("trace", 0, "1 repeats the loop with \"trace\": true, walks the replay ledger, runs the micro set and prints the per-layer metrics")
		traceOut  = flag.String("trace-out", "", "where the traced run writes its spans as JSON lines (default: a file under -tmp, path printed)")
		clients   = flag.Int("clients", 2, "closed-loop client goroutines; more than NumCPU is refused")
		tmp       = flag.String("tmp", ".bench_build/tmp", "directory for relfiles, spill segments and span files; created if missing")
		check     = flag.Bool("check", false, "pre-flight: run every class at 200 tuples per relation against proxrank.NaiveTopK, then exit")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the workload list and the metric registry, then exit")
		selfcheck = flag.Bool("selfcheck", false, "run each workload twice on this code and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if *printMan {
		buf, err := buildManifest().json()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(buf)
		return
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal(err)
	}

	targets := workloads()
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		targets = []*workload{w}
	}
	switch {
	case *check:
		for _, w := range targets {
			dir, err := os.MkdirTemp(*tmp, "check-")
			if err != nil {
				fatal(err)
			}
			err = preflight(w, *seed, dir)
			os.RemoveAll(dir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			fmt.Printf("check %s: every class agrees with NaiveTopK at %d tuples/relation\n", w.name, preflightTuples)
		}
		return
	case *selfcheck:
		ok := true
		for _, w := range targets {
			cfg := runConfig{w: w, seed: *seed, seconds: *seconds, clients: *clients, tmpDir: *tmp}
			same, err := selfCheck(cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			ok = ok && same
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *name == "" {
		fatal(fmt.Errorf("-workload is required (or -check / -selfcheck)"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	cfg := runConfig{
		w: targets[0], seed: *seed, seconds: *seconds, trace: *trace == 1,
		clients: *clients, tmpDir: *tmp, traceOut: *traceOut,
		singleSetup: *trace == 1, // setup_s is an end-to-end metric; the traced run does not report it
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if err := writeResult(os.Stdout, rep.result()); err != nil {
		fatal(err)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// selfCheck runs one workload twice on the same code and prints, per
// end-to-end metric, how far the second run is from the first. It reports
// false when any metric is worse by more than its bound, when
// sum_depths_per_query differs at all (the request list and the engine
// are deterministic), or when a request failed.
func selfCheck(cfg runConfig) (bool, error) {
	first, err := run(cfg)
	if err != nil {
		return false, err
	}
	second, err := run(cfg)
	if err != nil {
		return false, err
	}
	ok := first.failed == 0 && second.failed == 0
	fmt.Printf("selfcheck %s (N %d, failed %d and %d)\n", cfg.w.name, first.n, first.failed, second.failed)
	for _, d := range endToEnd {
		a, b := first.e2e[d.name], second.e2e[d.name]
		worse := math.Max(worseBy(a, b, d.higher), worseBy(b, a, d.higher))
		verdict := "ok"
		switch {
		case d.name == "sum_depths_per_query" && a != b:
			verdict, ok = "DIFFERS (must repeat exactly)", false
		case worse > d.bound:
			verdict, ok = fmt.Sprintf("EXCEEDS bound %.0f%%", 100*d.bound), false
		}
		fmt.Printf("  %-22s %14.4f %14.4f %-5s  diff %6.2f%%  %s\n", d.name, a, b, d.unit, 100*relDiff(a, b), verdict)
	}
	return ok, nil
}
