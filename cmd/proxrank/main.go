// Command proxrank answers ad-hoc proximity rank join queries over CSV
// relations or the bundled simulated city data sets. Queries are
// expressed as the transport-neutral api.Request (the same shape the
// HTTP service speaks) and executed through a proxrank.Query session, so
// -stream can print each result the moment the engine certifies it
// instead of waiting for the whole run.
//
// Usage:
//
//	proxrank -city SF -k 5
//	proxrank -csv hotels.csv,restaurants.csv -query "0.1,0.2" -k 10 -algo cbpa
//	proxrank -city NY -k 20 -stream
//
// CSV layout: header "id,score,x1,...,xd[,attrs...]", one tuple per row.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	proxrank "repro"
	"repro/api"
	"repro/internal/vec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It returns the exit status: 2 for a command
// line the flag package refuses, 1 for every other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proxrank", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		csvs   = fs.String("csv", "", "comma-separated relation CSV files")
		city   = fs.String("city", "", "simulated city dataset (SF, NY, BO, DA, HO)")
		queryS = fs.String("query", "", "query vector, e.g. \"0.1,0.2\" (defaults to the city landmark)")
		k      = fs.Int("k", 10, "number of results")
		algoS  = fs.String("algo", "tbpa", "algorithm: cbrr|cbpa|tbrr|tbpa")
		access = fs.String("access", "distance", "access kind: distance|score")
		ws     = fs.Float64("ws", 1, "score weight w_s")
		wq     = fs.Float64("wq", 1, "query-distance weight w_q")
		wmu    = fs.Float64("wmu", 1, "centroid-distance weight w_mu")
		showIO = fs.Bool("stats", false, "print access statistics")
		maxSum = fs.Int("max-sum-depths", 0, "abort after this many accesses (0 = unlimited)")
		maxBuf = fs.Int("max-buffered", 0, "bound the buffer of formed-but-unemitted combinations (0 = K)")
		stream = fs.Bool("stream", false, "print each result as soon as it is certified")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "proxrank: "+format+"\n", args...)
		return 1
	}

	var (
		rels     []*proxrank.Relation
		query    proxrank.Vector
		landmark string
	)
	switch {
	case *city != "":
		var err error
		rels, query, landmark, err = proxrank.CityDataset(strings.ToUpper(*city))
		if err != nil {
			return fail("%v", err)
		}
		// The bundled city study weights geography up (degree-scale coords).
		if *wq == 1 && *wmu == 1 {
			*wq, *wmu = 2000, 2000
		}
	case *csvs != "":
		for _, path := range strings.Split(*csvs, ",") {
			// The empty name keeps the historical default: the relation is
			// named after its file, which is what the result listing prints.
			rel, err := proxrank.LoadRelationCSV(strings.TrimSpace(path), "", 0)
			if err != nil {
				return fail("loading %s: %v", path, err)
			}
			rels = append(rels, rel)
		}
	default:
		return fail("provide -csv or -city (see -h)")
	}

	if *queryS != "" {
		q, err := vec.Parse(*queryS)
		if err != nil {
			return fail("bad query: %v", err)
		}
		query = q
	}
	if query == nil {
		return fail("no query vector: pass -query")
	}

	// One request shape across every surface: the CLI fills the same
	// api.Request the HTTP endpoints accept, and validation/defaulting
	// happen centrally in the api package.
	names := make([]string, len(rels))
	inputs := make([]proxrank.Input, len(rels))
	for i, rel := range rels {
		names[i] = rel.Name
		inputs[i] = rel
	}
	req := &api.Request{
		Query:        []float64(query),
		Relations:    names,
		K:            *k,
		Algorithm:    *algoS,
		Access:       *access,
		Weights:      &api.Weights{Ws: *ws, Wq: *wq, Wmu: *wmu},
		MaxSumDepths: *maxSum,
	}
	qvec, opts, err := proxrank.OptionsFromRequest(req)
	if err != nil {
		return fail("%v", err)
	}
	// The CLI consumes at most K results, so the buffer can always be
	// bounded (the service executor applies the same default) — but not
	// below K, which could silently change which results it prints.
	if *maxBuf < 0 || (*maxBuf > 0 && *maxBuf < *k) {
		return fail("-max-buffered %d must be 0 or at least -k %d", *maxBuf, *k)
	}
	opts.MaxBuffered = *maxBuf
	opts = opts.BoundedToK()
	// Per-pull timing only matters when the stats line is requested.
	opts.CollectTimings = *showIO

	sess, err := proxrank.NewQueryInputs(qvec, inputs, opts)
	if err != nil {
		return fail("%v", err)
	}
	defer sess.Close()

	if landmark != "" {
		fmt.Fprintf(stdout, "query: %s (%v)\n", landmark, qvec)
	} else {
		fmt.Fprintf(stdout, "query: %v\n", qvec)
	}

	print := func(rank int, c proxrank.Combination) {
		fmt.Fprintf(stdout, "#%d  score %.4f\n", rank, c.Score)
		for j, tup := range c.Tuples {
			fmt.Fprintf(stdout, "    %-14s %-24s score %.2f at %v\n", rels[j].Name, tup.ID, tup.Score, tup.Vec)
		}
	}

	// One drain for both modes: -stream prints each result as the bound
	// certifies it — rank 1 long before the run completes — and the default
	// holds them until the run is over.
	var held []proxrank.Combination
	rank := 0
	dnf, err := sess.Drain(context.Background(), func(c proxrank.Combination) {
		if !*stream {
			held = append(held, c)
			return
		}
		rank++
		print(rank, c)
	})
	if err != nil {
		return fail("%v", err)
	}
	for i, c := range held {
		print(i+1, c)
	}
	if dnf {
		fmt.Fprintln(stdout, "warning: run aborted by cap before the bound certified the result (DNF)")
	}
	if *showIO {
		st := sess.Stats()
		fmt.Fprintf(stdout, "sumDepths=%d depths=%v combinations=%d cpu=%v (bound %v)\n",
			st.SumDepths, st.Depths, st.CombinationsFormed, st.TotalTime, st.BoundTime)
	}
	return 0
}
