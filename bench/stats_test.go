package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {91, 10},
	}
	for _, c := range cases {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile(single, 99) = %v, want 7", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {576, 99, 5}, {6720, 99, 67}, {10, 90, 1}, {10, 99, 0}, {0, 99, 0}, {1400, 99, 14},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedianMeanRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(empty) = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestWorseByAndRelDiff(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	cases := []struct {
		base, got float64
		higher    bool
		want      float64
	}{
		{100, 110, false, 0.10}, // latency rose 10%: worse
		{100, 90, false, -0.10}, // latency fell: better
		{100, 110, true, -0.10}, // throughput rose: better
		{100, 90, true, 0.10},   // throughput fell 10%: worse
		{0, 0, false, 0},        // nothing moved
		{-50, -40, false, 0.20}, // share of |base|
		{200, 200, true, 0},
	}
	for _, c := range cases {
		if got := worseBy(c.base, c.got, c.higher); !near(got, c.want) {
			t.Errorf("worseBy(%v, %v, %v) = %v, want %v", c.base, c.got, c.higher, got, c.want)
		}
	}
	if got := worseBy(0, 1, false); !math.IsInf(got, 1) {
		t.Errorf("worseBy(0, 1, lower) = %v, want +Inf", got)
	}
	if got := worseBy(0, 1, true); !math.IsInf(got, -1) {
		t.Errorf("worseBy(0, 1, higher) = %v, want -Inf", got)
	}
	if got := relDiff(100, 110); !near(got, 10.0/110) {
		t.Errorf("relDiff(100, 110) = %v, want %v", got, 10.0/110)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0, 0) = %v, want 0", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	// quantiles([9,10,11,12,13], n=4) = [9.5, 11.0, 12.5]; median 11.
	if got := iqrShare([]float64{10, 12, 11, 13, 9}); !near(got, 3.0/11) {
		t.Errorf("iqrShare(9..13) = %v, want %v", got, 3.0/11)
	}
	// quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]: the exclusive method
	// extrapolates past the ends of a two-point sample.
	if got := iqrShare([]float64{1, 2}); !near(got, 1.0) {
		t.Errorf("iqrShare(1,2) = %v, want 1", got)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare(single) = %v, want 0", got)
	}
	if got := iqrShare([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("iqrShare(constant) = %v, want 0", got)
	}
}
