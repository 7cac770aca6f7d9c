package main

import (
	"bytes"
	"strings"
	"testing"
)

// runArgs runs the command in process and returns its exit status and
// what it wrote.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestFlagSurface: the flag set is what README and the verify notes
// drive — 13 flags, -h is not a failure, an unknown flag is a refusal.
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
	want := "-access -algo -city -csv -k -max-buffered -max-sum-depths -query -stats -stream -wmu -wq -ws"
	if got := strings.Join(flags, " "); got != want {
		t.Fatalf("flags %q, want %q", got, want)
	}
	if code, _, _ := runArgs("-city", "SF", "-rtree"); code != 2 {
		t.Fatalf("unknown flag exits %d, want 2", code)
	}
}

func TestRefusals(t *testing.T) {
	for _, tc := range []struct{ args, wantErr string }{
		{"", "provide -csv or -city"},
		{"-city ZZ", "ZZ"},
		{"-city SF -k 0", "k"},
		{"-city SF -algo quantum", "quantum"},
		{"-city SF -query 1,x", "bad query"},
		{"-city SF -k 3 -max-buffered 2", "-max-buffered 2 must be 0 or at least -k 3"},
		{"-city SF -max-buffered -1", "-max-buffered -1"},
	} {
		code, out, errs := runArgs(strings.Fields(tc.args)...)
		if code != 1 || out != "" || !strings.Contains(errs, tc.wantErr) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 1 saying %q", tc.args, code, out, errs, tc.wantErr)
		}
	}
}

// TestStreamPrintsTheBatchResults: -stream prints each result as it is
// certified, the default holds them to the end — the same three results
// either way, and -stats only adds its line.
func TestStreamPrintsTheBatchResults(t *testing.T) {
	code, batch, errs := runArgs("-city", "SF", "-k", "3", "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	results, statsLine, ok := strings.Cut(batch, "sumDepths=")
	if !ok || !strings.Contains(statsLine, "depths=[") {
		t.Fatalf("-stats printed no access statistics:\n%s", batch)
	}
	if !strings.HasPrefix(results, "query: Fisherman's Wharf") || strings.Count(results, "\n#") != 3 ||
		!strings.Contains(results, "\n#3  score ") || strings.Count(results, "SF-hotels-") != 3 {
		t.Fatalf("want the landmark and three ranked results of three tuples:\n%s", results)
	}
	code, streamed, errs := runArgs("-city", "SF", "-k", "3", "-stream")
	if code != 0 {
		t.Fatalf("-stream: exit %d: %s", code, errs)
	}
	if streamed != results {
		t.Fatalf("-stream differs from the batch listing:\n%s\n%s", streamed, results)
	}
	// A buffer bound of at least K changes nothing.
	if _, bounded, _ := runArgs("-city", "SF", "-k", "3", "-max-buffered", "8"); bounded != results {
		t.Fatalf("-max-buffered 8 differs from the default:\n%s\n%s", bounded, results)
	}
}
