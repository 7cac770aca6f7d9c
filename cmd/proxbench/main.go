// Command proxbench regenerates the paper's experimental study. Each panel
// of Figure 3 is a runnable experiment; the printed rows are the series
// the paper plots. It also maintains the repo's hot-path perf snapshot:
// -core-out runs the engine micro-benchmarks (batch TopK, session Next,
// sharded merge — the same workloads as `go test -bench=HotPath`) and
// writes them as BENCH_core.json, so the performance trajectory is
// tracked in-tree from PR to PR.
//
// Usage:
//
//	proxbench -fig all                  # every panel, paper methodology (10 reps)
//	proxbench -fig 3a,3h -quick         # selected panels at reduced size
//	proxbench -list                     # list available panels
//	proxbench -core-out BENCH_core.json # refresh the hot-path perf snapshot
//	proxbench -core-check BENCH_core.json # fail if allocs/op regressed vs the snapshot
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchcore"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It returns the exit status: 2 for a command
// line it refuses (an unknown flag or figure), 1 for a failed run or a
// tripped -core-check.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs      = fs.String("fig", "all", "comma-separated figure ids (3a..3l, t1..t3) or 'all'")
		quick     = fs.Bool("quick", false, "reduced repetitions and data sizes")
		reps      = fs.Int("reps", 0, "override the number of seeded data sets per point")
		list      = fs.Bool("list", false, "list available figures and exit")
		seed      = fs.Int64("seed", 0, "base seed for data generation")
		coreOut   = fs.String("core-out", "", "run the hot-path micro-benchmarks and write the JSON snapshot here ('-' for stdout)")
		coreCheck = fs.String("core-check", "", "run the hot-path micro-benchmarks and fail if any exceeds the committed snapshot's allocs/op by more than 10%")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "proxbench: "+format+"\n", args...)
		return 1
	}
	report := func(snap benchcore.Snapshot) {
		for _, b := range snap.Benchmarks {
			fmt.Fprintf(stderr, "%-17s %12.0f ns/op %10d B/op %8d allocs/op\n",
				b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
		}
	}

	if *coreCheck != "" {
		f, err := os.Open(*coreCheck)
		if err != nil {
			return fail("%v", err)
		}
		committed, err := benchcore.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return fail("%v", err)
		}
		fresh := benchcore.Run()
		report(fresh)
		if err := benchcore.CheckAllocs(fresh, committed); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "proxbench: allocs/op within 10%% of %s\n", *coreCheck)
		return 0
	}

	if *coreOut != "" {
		snap := benchcore.Run()
		out := stdout
		if *coreOut != "-" {
			f, err := os.Create(*coreOut)
			if err != nil {
				return fail("%v", err)
			}
			defer f.Close()
			out = f
		}
		if err := snap.Write(out); err != nil {
			return fail("%v", err)
		}
		report(snap)
		return 0
	}

	if *list {
		for _, f := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-4s %s\n", f.ID, f.Title)
		}
		return 0
	}

	st := experiments.DefaultSettings()
	if *quick {
		st = experiments.QuickSettings()
	}
	if *reps > 0 {
		st.Reps = *reps
	}
	st.Seed = *seed

	var selected []experiments.Figure
	if *figs == "all" {
		selected = experiments.Registry()
	} else {
		for _, id := range strings.Split(*figs, ",") {
			f, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "proxbench: unknown figure %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, f)
		}
	}

	for _, f := range selected {
		tbl, err := f.Run(st)
		if err != nil {
			return fail("figure %s: %v", f.ID, err)
		}
		if err := tbl.Render(stdout); err != nil {
			return fail("render %s: %v", f.ID, err)
		}
	}
	return 0
}
