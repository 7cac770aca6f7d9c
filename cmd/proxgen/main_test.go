package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	proxrank "repro"
)

// runArgs runs the command in process and returns its exit status and
// what it wrote.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestFlagSurface: the flag set is what README and the verify notes
// drive — 10 flags, -h is not a failure, an unknown flag is a refusal,
// and a value the command itself refuses exits 1 having written nothing.
func TestFlagSurface(t *testing.T) {
	code, _, usage := runArgs("-h")
	if code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	want := "-city -d -density -format -n -out -seed -shards -skew -tuples"
	if got := strings.Join(flags, " "); got != want {
		t.Fatalf("flags %q, want %q", got, want)
	}
	if code, _, _ := runArgs("-rtree"); code != 2 {
		t.Fatalf("unknown flag exits %d, want 2", code)
	}
	for _, tc := range []struct{ args, wantErr string }{
		{"-format parquet", `unknown -format "parquet"`},
		{"-city ZZ", "ZZ"},
		{"-n 0", "relations"},
	} {
		out := t.TempDir()
		code, stdout, errs := runArgs(append(strings.Fields(tc.args), "-out", out)...)
		files, _ := os.ReadDir(out)
		if code != 1 || stdout != "" || len(files) != 0 || !strings.Contains(errs, tc.wantErr) {
			t.Errorf("%q: exit %d, stdout %q, %d files, stderr %q; want exit 1 saying %q",
				tc.args, code, stdout, len(files), errs, tc.wantErr)
		}
	}
}

// generate runs the command into a fresh directory and returns every file
// it left there, by name.
func generate(t *testing.T, args ...string) (dir string, files map[string][]byte) {
	t.Helper()
	dir = t.TempDir()
	code, stdout, errs := runArgs(append(args, "-out", dir)...)
	if code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files = make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
		if !strings.Contains(stdout, "wrote "+filepath.Join(dir, e.Name())+" (") {
			t.Fatalf("%v: %s written but not reported:\n%s", args, e.Name(), stdout)
		}
	}
	return dir, files
}

// TestSameSeedSameBytes: per -format, a seed names one data set — the same
// command twice leaves byte-identical files, another seed does not — and
// what was written is what the loaders read: the CSV parses back to the
// tuples asked for, the relfile maps through proxrank.LoadRelFile with the
// shard layout asked for, and both hold the same relation.
func TestSameSeedSameBytes(t *testing.T) {
	const tuples = 300
	base := []string{"-n", "2", "-d", "3", "-tuples", "300", "-seed", "28"}
	loaded := make(map[string]proxrank.Input)
	for _, tc := range []struct {
		format string
		extra  []string
		load   func(t *testing.T, path string) proxrank.Input
	}{
		{"csv", nil, func(t *testing.T, path string) proxrank.Input {
			rel, err := proxrank.LoadRelationCSV(path, "R1", 0)
			if err != nil {
				t.Fatal(err)
			}
			return rel
		}},
		{"relfile", []string{"-shards", "3"}, func(t *testing.T, path string) proxrank.Input {
			s, err := proxrank.LoadRelFile(path, "R1")
			if err != nil {
				t.Fatal(err)
			}
			if s.NumShards() != 3 || !s.FileBacked() {
				t.Fatalf("loaded %d shards, file-backed %v; asked for 3 shards on disk", s.NumShards(), s.FileBacked())
			}
			return s
		}},
	} {
		t.Run(tc.format, func(t *testing.T) {
			args := append(append([]string{"-format", tc.format}, base...), tc.extra...)
			dir, first := generate(t, args...)
			_, second := generate(t, args...)
			if len(first) != 2 {
				t.Fatalf("%d files for 2 relations", len(first))
			}
			for name, data := range first {
				if !bytes.Equal(data, second[name]) {
					t.Errorf("%s differs between two runs of one seed", name)
				}
			}
			_, other := generate(t, append(args, "-seed", "29")...)
			for name, data := range first {
				if bytes.Equal(data, other[name]) {
					t.Errorf("%s is the same under another seed", name)
				}
			}
			ext := ".csv"
			if tc.format == "relfile" {
				ext = proxrank.RelFileExtension
			}
			in := tc.load(t, filepath.Join(dir, "R1"+ext))
			if rel := in.InputRelation(); rel.Len() != tuples || rel.Dim() != 3 {
				t.Fatalf("loaded %d tuples of dim %d, asked for %d of dim 3", rel.Len(), rel.Dim(), tuples)
			}
			loaded[tc.format] = in
		})
	}
	csv, prox := loaded["csv"], loaded["relfile"]
	if csv == nil || prox == nil {
		return
	}
	// One seed, one relation, whatever the container: same top answer.
	q := proxrank.Vector{0, 0, 0}
	a, err := proxrank.TopKInputs(q, []proxrank.Input{csv, csv}, proxrank.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := proxrank.TopKInputs(q, []proxrank.Input{prox, csv}, proxrank.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Combinations {
		if a.Combinations[i].Score != b.Combinations[i].Score || a.Combinations[i].Tuples[0].ID != b.Combinations[i].Tuples[0].ID {
			t.Fatalf("rank %d: csv %v, relfile %v", i, a.Combinations[i], b.Combinations[i])
		}
	}
}
