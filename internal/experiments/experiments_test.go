package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cities"
	"repro/internal/core"
)

// tinySettings keep the smoke tests fast.
func tinySettings() Settings {
	return Settings{
		Reps:            2,
		BaseTuples:      120,
		MaxSumDepths:    600,
		MaxCombinations: 120_000,
		EagerCPU:        false,
	}
}

func TestRegistryCoversAllPanels(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Fatalf("registry has %d entries, want 15 (figures 3a-3l + tables t1-t3)", len(reg))
	}
	for _, id := range []string{"3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "3i", "3j", "3k", "3l", "t1", "t2", "t3"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing entry %s", id)
		}
	}
	// 3m/3n are a recorded negative result in EXPERIMENTS.md, not
	// runnable panels.
	for _, id := range []string{"9z", "3m", "3n"} {
		if _, ok := ByID(id); ok {
			t.Errorf("figure %s found", id)
		}
	}
}

// TestTablesReproducePaperValues checks the regenerated Tables 1 and 3
// against the paper's printed numbers (the harness-level version of the
// core golden tests).
func TestTablesReproducePaperValues(t *testing.T) {
	tbl, err := table1(Settings{})
	if err != nil {
		t.Fatal(err)
	}
	wantS := []string{"-7.0", "-8.4", "-13.9", "-16.3", "-21.0", "-22.6", "-28.9", "-29.5"}
	for i, w := range wantS {
		if tbl.Rows[i][1] != w {
			t.Errorf("table1 row %d: S = %s, want %s", i, tbl.Rows[i][1], w)
		}
	}
	tbl3, err := table3(Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl3.Rows) != 19 {
		t.Fatalf("table3 has %d rows, want 19 partials", len(tbl3.Rows))
	}
	if !strings.Contains(tbl3.Notes[0], "t = -7.0") {
		t.Errorf("table3 overall bound note: %q", tbl3.Notes[0])
	}
}

func TestRunSyntheticPointBasic(t *testing.T) {
	st := tinySettings()
	p := DefaultPoint()
	p.K = 5
	s, err := RunSyntheticPoint(st, p, core.TBPA, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != st.Reps || s.DNFs != 0 {
		t.Fatalf("runs=%d dnfs=%d", s.Runs, s.DNFs)
	}
	if s.SumDepths <= 0 {
		t.Fatalf("sumDepths = %v", s.SumDepths)
	}
}

// TestZeroRepsRunOnce: a zero Settings.Reps runs one repetition per
// point, as RunCity always did; zero runs would render every cell as DNF.
// (BaseTuples is the one field a data set cannot do without.)
func TestZeroRepsRunOnce(t *testing.T) {
	s, err := RunSyntheticPoint(Settings{BaseTuples: 80}, DefaultPoint(), core.TBPA, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 1 || s.DNFs != 0 || s.SumDepths <= 0 {
		t.Fatalf("runs=%d dnfs=%d sumDepths=%v, want one finished run", s.Runs, s.DNFs, s.SumDepths)
	}
	if c := depthsCell(s); c == "DNF" {
		t.Fatalf("cell at Settings{} reads %s", c)
	}
}

// results turns canned runs into summarize's repetition function.
func results(runs ...core.Result) func(rep int) (core.Result, error) {
	return func(rep int) (core.Result, error) { return runs[rep], nil }
}

func TestSummarizeAverages(t *testing.T) {
	s, err := summarize(2, results(
		core.Result{Stats: core.Stats{SumDepths: 10, CombinationsFormed: 100, QPSolves: 4,
			TotalTime: 2 * time.Second, BoundTime: time.Second}},
		core.Result{Stats: core.Stats{SumDepths: 20, CombinationsFormed: 300, QPSolves: 8,
			TotalTime: 4 * time.Second, BoundTime: 2 * time.Second}},
	))
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 2 || s.DNFs != 0 {
		t.Fatalf("runs/dnfs = %d/%d", s.Runs, s.DNFs)
	}
	if s.SumDepths != 15 || s.CombinationsFormed != 200 || s.QPSolves != 6 {
		t.Fatalf("averages wrong: %+v", s)
	}
	if s.TotalSeconds != 3 || s.BoundSeconds != 1.5 {
		t.Fatalf("time averages wrong: %+v", s)
	}
}

func TestSummarizeExcludesDNF(t *testing.T) {
	s, err := summarize(2, results(
		core.Result{Stats: core.Stats{SumDepths: 10}},
		core.Result{DNF: true, Stats: core.Stats{SumDepths: 99999}},
	))
	if err != nil {
		t.Fatal(err)
	}
	if s.DNFs != 1 || s.Runs != 2 {
		t.Fatalf("dnfs/runs = %d/%d", s.DNFs, s.Runs)
	}
	if s.SumDepths != 10 {
		t.Fatalf("DNF polluted the mean: %v", s.SumDepths)
	}
}

func TestSummarizeEmptyAndAllDNF(t *testing.T) {
	s, err := summarize(0, results(core.Result{Stats: core.Stats{SumDepths: 7}}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 1 || s.SumDepths != 7 {
		t.Fatalf("zero reps: %+v, want one run", s)
	}
	s, err = summarize(2, results(core.Result{DNF: true}, core.Result{DNF: true}))
	if err != nil {
		t.Fatal(err)
	}
	if s.SumDepths != 0 || s.DNFs != 2 || depthsCell(s) != "DNF" {
		t.Fatalf("all-DNF summary: %+v", s)
	}
}

func TestGain(t *testing.T) {
	if g := gain(100, 70); g != 30 {
		t.Errorf("gain = %v", g)
	}
	if g := gain(0, 5); g != 0 {
		t.Errorf("gain with zero base = %v", g)
	}
}

// TestTightBeatsCornerOnDefaults reproduces the paper's headline claim on
// a small instance of the default operating point: TBPA accesses fewer
// tuples than CBPA (≥ 15% in the paper; we only assert strictly fewer to
// keep the smoke test robust at reduced sizes).
func TestTightBeatsCornerOnDefaults(t *testing.T) {
	st := tinySettings()
	st.Reps = 4
	p := DefaultPoint()
	cb, err := RunSyntheticPoint(st, p, core.CBPA, false)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := RunSyntheticPoint(st, p, core.TBPA, false)
	if err != nil {
		t.Fatal(err)
	}
	if tb.SumDepths >= cb.SumDepths {
		t.Fatalf("TBPA %.1f accesses vs CBPA %.1f: tight bound should win", tb.SumDepths, cb.SumDepths)
	}
}

func TestRunCity(t *testing.T) {
	st := DefaultSettings()
	st.Reps = 1
	city, err := cities.ByCode("DA")
	if err != nil {
		t.Fatal(err)
	}
	sTB, err := RunCity(st, city, core.TBPA, false)
	if err != nil {
		t.Fatal(err)
	}
	sCB, err := RunCity(st, city, core.CBPA, false)
	if err != nil {
		t.Fatal(err)
	}
	if sTB.SumDepths <= 0 || sCB.SumDepths <= 0 {
		t.Fatal("city runs produced no accesses")
	}
	if sTB.SumDepths > sCB.SumDepths {
		t.Fatalf("city TBPA %.0f deeper than CBPA %.0f", sTB.SumDepths, sCB.SumDepths)
	}
}

// TestEveryFigureRuns smoke-tests every panel at tiny settings and
// checks table shape.
func TestEveryFigureRuns(t *testing.T) {
	st := tinySettings()
	st.Reps = 1
	st.BaseTuples = 80
	st.MaxSumDepths = 300
	st.MaxCombinations = 60_000
	for _, fig := range Registry() {
		fig := fig
		t.Run(fig.ID, func(t *testing.T) {
			tbl, err := fig.Run(st)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 || len(tbl.Header) < 2 {
				t.Fatalf("figure %s produced empty table", fig.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("figure %s: row %v vs header %v", fig.ID, row, tbl.Header)
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tbl.Header[0]) {
				t.Fatalf("figure %s render missing header", fig.ID)
			}
		})
	}
}

// TestFig3aShape checks the qualitative paper claim that the number of
// accesses grows sublinearly with K for every algorithm.
func TestFig3aShape(t *testing.T) {
	st := tinySettings()
	st.Reps = 3
	depths := map[int]float64{}
	for _, k := range []int{1, 10, 50} {
		p := DefaultPoint()
		p.K = k
		s, err := RunSyntheticPoint(st, p, core.TBPA, false)
		if err != nil {
			t.Fatal(err)
		}
		depths[k] = s.SumDepths
	}
	if !(depths[1] <= depths[10] && depths[10] <= depths[50]) {
		t.Fatalf("sumDepths not monotone in K: %v", depths)
	}
	if depths[50] >= 50*depths[1] {
		t.Fatalf("growth not sublinear: %v", depths)
	}
}

func TestTableCells(t *testing.T) {
	if cell(1235.6) != "1236" || cell(25.34) != "25.3" || cell(1.234) != "1.23" {
		t.Error("cell formatting")
	}
	if secCell(2.5) != "2.50s" || secCell(0.0021) != "2.10ms" || secCell(3e-5) != "30µs" {
		t.Errorf("secCell formatting: %s %s %s", secCell(2.5), secCell(0.0021), secCell(3e-5))
	}
}

// TestPartlyDNFCellsAreMarked: a mean over the repetitions that finished
// must not print as the point's value unmarked (Fig. 3(h) read TBRR 150.7
// at n = 3 and 134.0 at n = 4 — fewer survivors, not a cheaper join).
func TestPartlyDNFCellsAreMarked(t *testing.T) {
	collect := func(dnfs, runs int) Summary {
		s, err := summarize(runs, func(rep int) (core.Result, error) {
			return core.Result{DNF: rep < dnfs, Stats: core.Stats{SumDepths: 140,
				TotalTime: 2 * time.Millisecond, BoundTime: time.Millisecond}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cells := func(s Summary) []string {
		return []string{depthsCell(s), cpuCell(s, core.CBPA), cpuCell(s, core.TBPA)}
	}
	want := []string{"140.0", "2.00ms", "2.00ms(1.00ms)"}
	for i, got := range cells(collect(0, 10)) {
		if got != want[i] {
			t.Errorf("no DNF: cell %d = %q, want %q", i, got, want[i])
		}
	}
	for i, got := range cells(collect(3, 10)) {
		if w := want[i] + " (3/10 DNF)"; got != w {
			t.Errorf("3 of 10 DNF: cell %d = %q, want %q", i, got, w)
		}
	}
	for i, got := range cells(collect(10, 10)) {
		if got != "DNF" {
			t.Errorf("all DNF: cell %d = %q, want DNF", i, got)
		}
	}
}

func TestQuickAndDefaultSettings(t *testing.T) {
	d := DefaultSettings()
	q := QuickSettings()
	if d.Reps != 10 {
		t.Errorf("paper methodology is 10 reps, got %d", d.Reps)
	}
	if q.Reps >= d.Reps || q.BaseTuples >= d.BaseTuples {
		t.Error("quick settings are not quicker")
	}
}

// studyPin is one row of the pinned study: a panel's ID and the first
// 8 bytes of the sha256 of its rendered table.
type studyPin struct {
	id     string
	digest uint64
}

// pinnedStudy holds every panel of Registry() rendered at the settings
// of TestEveryFigureRuns, plus the registry's (ID, Title) list, as
// recorded at commit bb14ab9.
var pinnedStudy = []studyPin{
	{"3a", 0xc2b8d4a3a4af4672},
	{"3b", 0x99d1bef35a99442e},
	{"3c", 0x598dcd8c5777403e},
	{"3d", 0x1c54c35d0dc231d7},
	{"3e", 0xe7b7b221992c412c},
	{"3f", 0x99e06f5cea6fbe4d},
	{"3g", 0xc31fc5e3ba6f99af},
	{"3h", 0xd4b2fbb6cba07a86},
	{"3i", 0x204c270feb02e62e},
	{"3j", 0x3e3e56988483e965},
	{"3k", 0xde8bc19e284db5e6},
	{"3l", 0x6123ec063c7bbdbf},
	{"t1", 0xa80547c72ae77fd9},
	{"t2", 0xa3d6b7592c235f89},
	{"t3", 0x5ea2472a1a319424},
	{"registry", 0xc980c2f05249aa3a},
}

var (
	durationRe = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(s|ms|µs)`)
	spacesRe   = regexp.MustCompile(` +`)
)

// TestStudyPinned holds the rendered study to the recorded digests,
// panel for panel: every title, header, row label, cell and note of
// Figure 3 and Tables 1–3. A CPU panel is hashed with each duration
// replaced by T and runs of spaces collapsed, so only its timings and
// the column padding they cause may move.
func TestStudyPinned(t *testing.T) {
	st := tinySettings()
	st.Reps = 1
	st.BaseTuples = 80
	st.MaxSumDepths = 300
	st.MaxCombinations = 60_000
	cpu := map[string]bool{"3d": true, "3e": true, "3f": true, "3j": true, "3k": true, "3l": true}
	digest := func(s string) uint64 {
		sum := sha256.Sum256([]byte(s))
		return binary.BigEndian.Uint64(sum[:8])
	}
	var got []studyPin
	var rendered []string
	var reg strings.Builder
	for _, fig := range Registry() {
		fmt.Fprintf(&reg, "%s\t%s\n", fig.ID, fig.Title)
		tbl, err := fig.Run(st)
		if err != nil {
			t.Fatalf("figure %s: %v", fig.ID, err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if cpu[fig.ID] {
			out = spacesRe.ReplaceAllString(durationRe.ReplaceAllString(out, "T"), " ")
		}
		got = append(got, studyPin{fig.ID, digest(out)})
		rendered = append(rendered, out)
	}
	got = append(got, studyPin{"registry", digest(reg.String())})
	rendered = append(rendered, reg.String())

	var rows []string
	for _, p := range got {
		rows = append(rows, fmt.Sprintf("\t{%q, 0x%016x},", p.id, p.digest))
	}
	if len(got) != len(pinnedStudy) {
		t.Fatalf("pinned study has %d rows, run produced %d:\n%s", len(pinnedStudy), len(got), strings.Join(rows, "\n"))
	}
	for i := range got {
		if got[i] != pinnedStudy[i] {
			t.Errorf("row %d: got %+v, pinned %+v (%s)\n%s", i, got[i], pinnedStudy[i], strings.TrimSpace(rows[i]), rendered[i])
		}
	}
}
