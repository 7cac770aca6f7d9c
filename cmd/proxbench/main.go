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
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchcore"
	"repro/internal/experiments"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated figure ids (3a..3n) or 'all'")
		quick     = flag.Bool("quick", false, "reduced repetitions and data sizes")
		reps      = flag.Int("reps", 0, "override the number of seeded data sets per point")
		list      = flag.Bool("list", false, "list available figures and exit")
		seed      = flag.Int64("seed", 0, "base seed for data generation")
		coreOut   = flag.String("core-out", "", "run the hot-path micro-benchmarks and write the JSON snapshot here ('-' for stdout)")
		coreCheck = flag.String("core-check", "", "run the hot-path micro-benchmarks and fail if any exceeds the committed snapshot's allocs/op by more than 10%")
	)
	flag.Parse()

	if *coreCheck != "" {
		f, err := os.Open(*coreCheck)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: %v\n", err)
			os.Exit(1)
		}
		committed, err := benchcore.ReadSnapshot(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: %v\n", err)
			os.Exit(1)
		}
		fresh := benchcore.Run()
		for _, b := range fresh.Benchmarks {
			fmt.Fprintf(os.Stderr, "%-17s %12.0f ns/op %10d B/op %8d allocs/op\n",
				b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
		}
		if err := benchcore.CheckAllocs(fresh, committed); err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "proxbench: allocs/op within 10%% of %s\n", *coreCheck)
		return
	}

	if *coreOut != "" {
		snap := benchcore.Run()
		out := os.Stdout
		if *coreOut != "-" {
			f, err := os.Create(*coreOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proxbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := snap.Write(out); err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: %v\n", err)
			os.Exit(1)
		}
		for _, b := range snap.Benchmarks {
			fmt.Fprintf(os.Stderr, "%-17s %12.0f ns/op %10d B/op %8d allocs/op\n",
				b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
		}
		return
	}

	if *list {
		for _, f := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", f.ID, f.Title)
		}
		return
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
				fmt.Fprintf(os.Stderr, "proxbench: unknown figure %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, f)
		}
	}

	for _, f := range selected {
		tbl, err := f.Run(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: figure %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: render %s: %v\n", f.ID, err)
			os.Exit(1)
		}
	}
}
