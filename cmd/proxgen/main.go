// Command proxgen writes synthetic or simulated-city relations to CSV
// files or the mmap-ready relfile format (.prox), for use with
// cmd/proxrank, cmd/proxserve, or external tools.
//
// Usage:
//
//	proxgen -out data/ -n 3 -d 2 -density 100 -tuples 400 -seed 7
//	proxgen -out data/ -city NY
//	proxgen -out data/ -format relfile -tuples 1000000 -shards 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	proxrank "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It returns the exit status: 2 for a command
// line the flag package refuses, 1 for every other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proxgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("out", ".", "output directory")
		city    = fs.String("city", "", "emit a simulated city dataset instead of synthetic data")
		n       = fs.Int("n", 2, "number of relations")
		d       = fs.Int("d", 2, "feature dimensions")
		density = fs.Float64("density", 100, "tuples per volume unit (rho)")
		skew    = fs.Float64("skew", 1, "density multiplier of relation 1 (rho1/rho2)")
		tuples  = fs.Int("tuples", 400, "tuples per unskewed relation")
		seed    = fs.Int64("seed", 0, "generator seed")
		format  = fs.String("format", "csv", "output format: csv or relfile (.prox, columnar, opened O(1) by proxserve)")
		shards  = fs.Int("shards", 0, "relfile grid shard count (0 = auto from relation size)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "proxgen: "+format+"\n", args...)
		return 1
	}

	if *format != "csv" && *format != "relfile" {
		return fail("unknown -format %q (want csv or relfile)", *format)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail("%v", err)
	}

	var rels []*proxrank.Relation
	if *city != "" {
		var err error
		rels, _, _, err = proxrank.CityDataset(strings.ToUpper(*city))
		if err != nil {
			return fail("%v", err)
		}
	} else {
		cfg := proxrank.DefaultSyntheticConfig()
		cfg.Relations = *n
		cfg.Dim = *d
		cfg.Density = *density
		cfg.Skew = *skew
		cfg.BaseTuples = *tuples
		cfg.Seed = *seed
		var err error
		rels, err = proxrank.SyntheticRelations(cfg)
		if err != nil {
			return fail("%v", err)
		}
	}

	for _, rel := range rels {
		if *format == "relfile" {
			count := *shards
			if count == 0 {
				count = proxrank.AutoShardCount(rel.Len())
			}
			sharded, err := proxrank.NewShardedRelation(rel, count)
			if err != nil {
				return fail("partitioning %s: %v", rel.Name, err)
			}
			path := filepath.Join(*out, sanitize(rel.Name)+proxrank.RelFileExtension)
			if err := proxrank.SaveRelFile(path, sharded); err != nil {
				return fail("writing %s: %v", path, err)
			}
			fmt.Fprintf(stdout, "wrote %s (%d tuples, dim %d, %d grid shards)\n",
				path, rel.Len(), rel.Dim(), sharded.NumShards())
			continue
		}
		path := filepath.Join(*out, sanitize(rel.Name)+".csv")
		if err := proxrank.SaveRelationCSV(path, rel); err != nil {
			return fail("writing %s: %v", path, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d tuples, dim %d)\n", path, rel.Len(), rel.Dim())
	}
	return 0
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, name)
}
