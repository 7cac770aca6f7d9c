package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. Nearest-rank never interpolates, so every reported
// latency is one that a request actually had. An empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank p-th percentile — the number the tail estimate rests on.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the middle pair for even n); 0 when empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den with 0/0 = 0, so a layer that saw no traffic reads 0
// instead of NaN (the result line must hold numbers only).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relDiff is |a-b| as a share of the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// worseBy is how much worse got is than base as a share of base, given
// the metric's direction; negative means better. A zero base reads 0
// unless got moved, which reads +Inf for "worse" and -Inf for "better".
func worseBy(base, got float64, higherIsBetter bool) float64 {
	d := got - base
	if higherIsBetter {
		d = -d
	}
	if base == 0 {
		switch {
		case d == 0:
			return 0
		case d > 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return d / math.Abs(base)
}

// iqrShare is the distance between the first and third quartile of xs as
// a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method) — the
// spread figure the benchmark contract is judged by.
func iqrShare(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}
