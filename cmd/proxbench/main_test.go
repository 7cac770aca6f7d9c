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

// TestFlagSurface: the flag set is the regression surface of ci.yml and
// of the commands EXPERIMENTS.md gives — 7 flags, -h is not a failure,
// an unknown flag is a refusal.
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
	want := "-core-check -core-out -fig -list -quick -reps -seed"
	if got := strings.Join(flags, " "); got != want {
		t.Fatalf("flags %q, want %q", got, want)
	}
	if code, _, _ := runArgs("-period", "8"); code != 2 {
		t.Fatalf("unknown flag exits %d, want 2", code)
	}
}

// TestListIsTheRegistry: -list prints the panels the paper study still
// has, one a line, in paper order; 3m/3n (a recorded negative result
// in EXPERIMENTS.md) are unknown figures.
func TestListIsTheRegistry(t *testing.T) {
	code, out, _ := runArgs("-list")
	if code != 0 {
		t.Fatalf("-list exits %d", code)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "3a 3b 3c 3d 3e 3f 3g 3h 3i 3j 3k 3l t1 t2 t3"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("-list prints %q, want %q", got, want)
	}
	code, out, errs := runArgs("-fig", "3a,3m")
	if code != 2 || out != "" || !strings.Contains(errs, `unknown figure "3m"`) {
		t.Fatalf("-fig 3a,3m: exit %d, stdout %q, stderr %q; want a refusal before any panel runs", code, out, errs)
	}
}

// TestSumDepthsPanelIsDeterministic: the paper's I/O metric depends on
// the seeds alone, so a sumDepths panel prints the same bytes twice.
func TestSumDepthsPanelIsDeterministic(t *testing.T) {
	args := []string{"-fig", "3a", "-quick", "-reps", "1"}
	code, first, errs := runArgs(args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"Fig 3(a)", "CBRR(HRJN)", "K=50"} {
		if !strings.Contains(first, want) {
			t.Fatalf("table lacks %q:\n%s", want, first)
		}
	}
	if _, second, _ := runArgs(args...); second != first {
		t.Fatalf("two runs differ:\n%s\n%s", first, second)
	}
}
