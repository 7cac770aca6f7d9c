// Package stats aggregates run metrics across repeated experiments: the
// paper reports every figure as the average over ten seeded data sets
// (§4.1), with CPU time split into combination-forming and bound-update
// fractions (the stacked bars of Figure 3).
package stats

import (
	"fmt"
	"time"
)

// Sample is one run's measurements.
type Sample struct {
	SumDepths          int
	Depths             []int
	CombinationsFormed int64
	QPSolves           int64
	TotalTime          time.Duration
	BoundTime          time.Duration
	DNF                bool
}

// Summary is the average of many samples.
type Summary struct {
	Runs               int
	DNFs               int
	SumDepths          float64
	CombinationsFormed float64
	QPSolves           float64
	TotalSeconds       float64
	BoundSeconds       float64
	// OtherSeconds is Total − Bound: the combination-forming cost (the
	// darker bottom bar in the paper's stacked charts).
	OtherSeconds float64
}

// Collector accumulates samples.
type Collector struct {
	samples []Sample
}

// Add appends one sample.
func (c *Collector) Add(s Sample) { c.samples = append(c.samples, s) }

// Len returns the number of samples collected.
func (c *Collector) Len() int { return len(c.samples) }

// Summarize averages over the non-DNF samples (DNFs are counted but do not
// pollute the means, mirroring how the paper reports "did not finish").
func (c *Collector) Summarize() Summary {
	var s Summary
	s.Runs = len(c.samples)
	n := 0
	for _, sm := range c.samples {
		if sm.DNF {
			s.DNFs++
			continue
		}
		n++
		s.SumDepths += float64(sm.SumDepths)
		s.CombinationsFormed += float64(sm.CombinationsFormed)
		s.QPSolves += float64(sm.QPSolves)
		s.TotalSeconds += sm.TotalTime.Seconds()
		s.BoundSeconds += sm.BoundTime.Seconds()
	}
	if n > 0 {
		f := 1 / float64(n)
		s.SumDepths *= f
		s.CombinationsFormed *= f
		s.QPSolves *= f
		s.TotalSeconds *= f
		s.BoundSeconds *= f
	}
	s.OtherSeconds = s.TotalSeconds - s.BoundSeconds
	if s.OtherSeconds < 0 {
		s.OtherSeconds = 0
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	out := fmt.Sprintf("sumDepths=%.1f cpu=%.4fs (bound %.4fs)",
		s.SumDepths, s.TotalSeconds, s.BoundSeconds)
	if s.DNFs > 0 {
		out += fmt.Sprintf(" [%d/%d DNF]", s.DNFs, s.Runs)
	}
	return out
}

// Gain returns the relative improvement of b over a in percent, where
// smaller is better: 100·(a−b)/a.
func Gain(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (a - b) / a
}
