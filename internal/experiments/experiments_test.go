package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cities"
	"repro/internal/core"
	"repro/internal/stats"
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
	collect := func(dnfs, runs int) stats.Summary {
		var col stats.Collector
		for i := 0; i < runs; i++ {
			col.Add(stats.Sample{SumDepths: 140, TotalTime: 2 * time.Millisecond,
				BoundTime: time.Millisecond, DNF: i < dnfs})
		}
		return col.Summarize()
	}
	cells := func(s stats.Summary) []string {
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
