package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummarizeAverages(t *testing.T) {
	var c Collector
	c.Add(Sample{SumDepths: 10, CombinationsFormed: 100, QPSolves: 4,
		TotalTime: 2 * time.Second, BoundTime: time.Second})
	c.Add(Sample{SumDepths: 20, CombinationsFormed: 300, QPSolves: 8,
		TotalTime: 4 * time.Second, BoundTime: 2 * time.Second})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	s := c.Summarize()
	if s.Runs != 2 || s.DNFs != 0 {
		t.Fatalf("runs/dnfs = %d/%d", s.Runs, s.DNFs)
	}
	if s.SumDepths != 15 || s.CombinationsFormed != 200 || s.QPSolves != 6 {
		t.Fatalf("averages wrong: %+v", s)
	}
	if s.TotalSeconds != 3 || s.BoundSeconds != 1.5 {
		t.Fatalf("time averages wrong: %+v", s)
	}
	if math.Abs(s.OtherSeconds-1.5) > 1e-12 {
		t.Fatalf("OtherSeconds = %v, want 1.5", s.OtherSeconds)
	}
}

func TestSummarizeExcludesDNF(t *testing.T) {
	var c Collector
	c.Add(Sample{SumDepths: 10})
	c.Add(Sample{SumDepths: 99999, DNF: true})
	s := c.Summarize()
	if s.DNFs != 1 || s.Runs != 2 {
		t.Fatalf("dnfs/runs = %d/%d", s.DNFs, s.Runs)
	}
	if s.SumDepths != 10 {
		t.Fatalf("DNF polluted the mean: %v", s.SumDepths)
	}
	if !strings.Contains(s.String(), "DNF") {
		t.Errorf("String() misses DNF marker: %s", s.String())
	}
}

func TestSummarizeEmptyAndAllDNF(t *testing.T) {
	var c Collector
	s := c.Summarize()
	if s.Runs != 0 || s.SumDepths != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	c.Add(Sample{DNF: true})
	s = c.Summarize()
	if s.SumDepths != 0 || s.DNFs != 1 {
		t.Fatalf("all-DNF summary: %+v", s)
	}
}

func TestOtherSecondsNeverNegative(t *testing.T) {
	var c Collector
	// Accounting noise: bound slightly exceeds total.
	c.Add(Sample{TotalTime: time.Millisecond, BoundTime: 2 * time.Millisecond})
	if s := c.Summarize(); s.OtherSeconds < 0 {
		t.Fatalf("OtherSeconds = %v", s.OtherSeconds)
	}
}

func TestGain(t *testing.T) {
	if g := Gain(100, 70); g != 30 {
		t.Errorf("Gain = %v", g)
	}
	if g := Gain(0, 5); g != 0 {
		t.Errorf("Gain with zero base = %v", g)
	}
}
