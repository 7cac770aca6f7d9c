package main

// The /metrics scrape: proxload reads the server's Prometheus exposition
// before and after the run, validates it (a malformed exposition fails
// the run — this is the CI gate on the metrics endpoint), and derives
// server-side latency percentiles from the histogram deltas and the
// report's server delta from the counter families. Client and
// server percentiles answer different questions — the client numbers
// include connection setup, HTTP framing, and generator scheduling; the
// server histograms see only what the executor did — so the report
// prints them side by side.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// histSnap is one histogram family folded across its label sets:
// cumulative bucket counts by upper bound, total count, total sum.
type histSnap struct {
	buckets map[float64]int64
	count   int64
	sum     float64
}

// metricsSnap is one scrape's histogram families by name, plus the
// plain (gauge/counter) samples folded across label sets.
type metricsSnap struct {
	hists  map[string]*histSnap
	scalar map[string]float64
}

// gauge returns a plain sample by family name (0 when absent).
func (s *metricsSnap) gauge(name string) float64 { return s.scalar[name] }

// scrapeMetrics reads GET /metrics and parses the histogram families. A
// missing endpoint or a malformed exposition is a hard failure: every
// target runs this build.
func scrapeMetrics(client *http.Client, base string) (*metricsSnap, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := obs.CheckExposition(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("malformed /metrics exposition: %w", err)
	}
	snap := &metricsSnap{hists: make(map[string]*histSnap), scalar: make(map[string]float64)}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := obs.ParseSample(line)
		if err != nil {
			return nil, fmt.Errorf("malformed /metrics exposition: %w", err)
		}
		name, value := sample.Name, sample.Value
		switch {
		case strings.HasSuffix(name, "_bucket"):
			bound, _ := sample.Label("le")
			le, err := strconv.ParseFloat(bound, 64)
			if err != nil {
				continue
			}
			h := snap.hist(strings.TrimSuffix(name, "_bucket"))
			h.buckets[le] += int64(value)
		case strings.HasSuffix(name, "_sum"):
			snap.hist(strings.TrimSuffix(name, "_sum")).sum += value
		case strings.HasSuffix(name, "_count"):
			snap.hist(strings.TrimSuffix(name, "_count")).count += int64(value)
		default:
			snap.scalar[name] += value
		}
	}
	return snap, nil
}

func (s *metricsSnap) hist(family string) *histSnap {
	h := s.hists[family]
	if h == nil {
		h = &histSnap{buckets: make(map[float64]int64)}
		s.hists[family] = h
	}
	return h
}

// delta subtracts an earlier scrape of the same family; a family either
// scrape lacks is an empty histogram.
func (s *metricsSnap) delta(before *metricsSnap, family string) histSnap {
	d := histSnap{buckets: make(map[float64]int64)}
	a, b := s.hists[family], before.hists[family]
	if a == nil {
		return d
	}
	d.count, d.sum = a.count, a.sum
	for le, c := range a.buckets {
		d.buckets[le] = c
	}
	if b != nil {
		d.count -= b.count
		d.sum -= b.sum
		for le, c := range b.buckets {
			d.buckets[le] -= c
		}
	}
	return d
}

// counterDeltas is the growth of every counter family (a name ending
// in _total) since an earlier scrape, summed over its label sets. Gauges
// are left out: after minus before of an instant or a peak means nothing.
func (s *metricsSnap) counterDeltas(before *metricsSnap) map[string]float64 {
	d := make(map[string]float64)
	for name, v := range s.scalar {
		if strings.HasSuffix(name, "_total") {
			d[name] = v - before.scalar[name]
		}
	}
	return d
}

// quantile estimates the q-quantile from cumulative bucket counts the
// way Prometheus's histogram_quantile does: find the bucket the target
// rank lands in and interpolate linearly inside it. The +Inf bucket
// reports its lower bound (the histogram cannot resolve further).
func (h histSnap) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	les := make([]float64, 0, len(h.buckets))
	for le := range h.buckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	target := q * float64(h.count)
	prevCum, prevLe := 0.0, 0.0
	for _, le := range les {
		cum := float64(h.buckets[le])
		if cum >= target {
			if math.IsInf(le, +1) {
				// The histogram cannot resolve past its last finite bound.
				return prevLe
			}
			inBucket := cum - prevCum
			if inBucket <= 0 {
				return le
			}
			return prevLe + (le-prevLe)*(target-prevCum)/inBucket
		}
		prevCum, prevLe = cum, le
	}
	return prevLe
}

// serverHist is one server-side histogram delta summarized for the
// report, in milliseconds.
type serverHist struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MeanMs float64 `json:"meanMs"`
}

// summarizeHist folds a seconds-histogram delta into milliseconds.
func summarizeHist(d histSnap) serverHist {
	s := serverHist{Count: d.count}
	if d.count == 0 {
		return s
	}
	s.P50Ms = d.quantile(0.50) * 1e3
	s.P95Ms = d.quantile(0.95) * 1e3
	s.P99Ms = d.quantile(0.99) * 1e3
	s.MeanMs = d.sum / float64(d.count) * 1e3
	return s
}
