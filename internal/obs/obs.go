// Package obs is the system's dependency-free observability substrate: a
// metrics registry of fixed-bucket histograms and scrape-time counters
// and gauges with Prometheus text-format exposition.
//
// The package deliberately implements the minimal slice of the
// Prometheus data model the serving layer needs — no client_golang
// dependency, no push, no summaries — while staying wire-compatible
// with any Prometheus-format scraper:
//
//   - CounterFunc / GaugeFunc and their Vec forms: a live value read at
//     scrape time, which is how counts and levels that already exist as
//     service atomics are exposed without a second source of truth.
//   - Histogram / HistogramVec: fixed cumulative buckets with an
//     implicit +Inf bucket, a sum, and a count.
//
// All recording operations are lock-free (atomics only) and safe for
// concurrent use; a histogram Observe is a binary search plus two
// atomic adds, cheap enough for per-request paths. Vec children are
// created on first use under a short mutex and cached, so steady-state
// label lookups take one read-locked map hit.
//
// Metric and label names are validated at registration and registration
// panics on duplicates or invalid names — both are programmer errors, a
// misnamed metric should fail loudly at startup, not at scrape time.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition TYPE of a metric family.
type Kind string

// Family kinds, matching the Prometheus text-format TYPE vocabulary.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds named metric families and renders them in Prometheus
// text format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted family names, rebuilt on registration
}

// family is one named metric with all its labeled children.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string // label names, fixed at registration ("" children use none)

	mu       sync.RWMutex
	children map[string]metric // key: joined label values
	order    []string          // insertion-sorted keys for stable exposition

	buckets []float64 // histogram families only
}

// metric is anything a family can hold per label combination.
type metric interface {
	// write appends the sample lines for this child. labelStr is the
	// rendered {k="v",...} block, "" when the family has no labels.
	write(b *strings.Builder, name, labelStr string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_][a-zA-Z0-9_]* (colons are reserved for recording
// rules, so this registry rejects them).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs a new family or panics: duplicate and malformed
// registrations are programmer errors that must surface at startup.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[f.name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
	r.names = append(r.names, f.name)
	sort.Strings(r.names)
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
// This is how values that already live in service atomics (worker
// saturation, cache entries, broker lag) are exposed without keeping a
// second copy that could drift.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := &family{name: name, help: help, kind: KindGauge, children: map[string]metric{}}
	r.register(f)
	f.addChild("", funcGauge{fn})
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — the exposition form of a monotone count that already lives in
// a service atomic, guaranteeing /metrics and the legacy stats snapshot
// can never disagree. fn must be monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := &family{name: name, help: help, kind: KindCounter, children: map[string]metric{}}
	r.register(f)
	f.addChild("", funcGauge{fn})
}

// CounterFuncVec registers a labeled family of func-backed counters;
// each series is added once with Bind. Like CounterFunc, the functions
// must be monotone non-decreasing.
func (r *Registry) CounterFuncVec(name, help string, labels ...string) *FuncVec {
	f := &family{name: name, help: help, kind: KindCounter, labels: labels, children: map[string]metric{}}
	r.register(f)
	return &FuncVec{f: f}
}

// GaugeFuncVec registers a labeled family of func-backed gauges; each
// series is added once with Bind. Unlike CounterFuncVec, the functions
// may move in either direction (e.g. a circuit breaker's state enum).
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *FuncVec {
	f := &family{name: name, help: help, kind: KindGauge, labels: labels, children: map[string]metric{}}
	r.register(f)
	return &FuncVec{f: f}
}

// FuncVec is a labeled family whose series are scrape-time functions.
type FuncVec struct{ f *family }

// Bind installs fn as the series for the given label values; binding
// the same values twice panics.
func (v *FuncVec) Bind(fn func() float64, values ...string) {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	v.f.addChild(strings.Join(values, "\xff"), funcGauge{fn})
}

// Histogram registers a fixed-bucket histogram with no labels. buckets
// are the upper bounds (inclusive, cumulative), strictly increasing;
// the +Inf bucket is implicit. The slice is cloned.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := &family{name: name, help: help, kind: KindHistogram, buckets: checkBuckets(name, buckets), children: map[string]metric{}}
	r.register(f)
	h := newHistogram(f.buckets)
	f.addChild("", h)
	return h
}

// HistogramVec registers a histogram family with label names; children
// share the bucket layout and are created on first With.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := &family{name: name, help: help, kind: KindHistogram, buckets: checkBuckets(name, buckets), labels: labels, children: map[string]metric{}}
	r.register(f)
	return &HistogramVec{f: f}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	out := make([]float64, len(buckets))
	copy(out, buckets)
	for i, b := range out {
		if math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram %q bucket %d is NaN", name, i))
		}
		if i > 0 && b <= out[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets must increase strictly (bucket %d)", name, i))
		}
	}
	if math.IsInf(out[len(out)-1], 1) {
		out = out[:len(out)-1] // +Inf is implicit
	}
	return out
}

// ExpBuckets returns n strictly increasing bucket bounds starting at
// start and growing by factor — the standard exponential layout for
// latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default layout for request-latency histograms:
// 100µs to ~52s, doubling.
func DurationBuckets() []float64 { return ExpBuckets(100e-6, 2, 20) }

// addChild installs a child under the joined-values key, keeping the
// exposition order sorted by key.
func (f *family) addChild(key string, m metric) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; ok {
		panic(fmt.Sprintf("obs: metric %q child %q added twice", f.name, key))
	}
	f.children[key] = m
	i := sort.SearchStrings(f.order, key)
	f.order = append(f.order, "")
	copy(f.order[i+1:], f.order[i:])
	f.order[i] = key
}

// child returns the metric for the given label values, creating it via
// make on first use. Label-value count mismatches panic: the call site
// is statically wrong.
func (f *family) child(values []string, make func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.children[key]; ok {
		return m
	}
	m = make()
	f.children[key] = m
	i := sort.SearchStrings(f.order, key)
	f.order = append(f.order, "")
	copy(f.order[i+1:], f.order[i:])
	f.order[i] = key
	return m
}

// funcGauge renders a live value at scrape time.
type funcGauge struct{ fn func() float64 }

func (g funcGauge) write(b *strings.Builder, name, labelStr string) {
	b.WriteString(name)
	b.WriteString(labelStr)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.fn()))
	b.WriteByte('\n')
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: one binary search, one bucket add, one CAS-looped sum add.
type Histogram struct {
	buckets []float64      // upper bounds, +Inf implicit
	counts  []atomic.Int64 // len(buckets)+1, last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records v. NaN observations are dropped (they would poison
// the sum and match no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is >= v (le semantics).
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, clamping negatives
// (clock weirdness) to zero.
func (h *Histogram) ObserveDuration(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	h.Observe(seconds)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(b *strings.Builder, name, labelStr string) {
	// Cumulative buckets: snapshot counts first so the rendered series
	// is internally consistent even while observations land.
	cum := int64(0)
	snap := make([]int64, len(h.counts))
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
	}
	for i, ub := range h.buckets {
		cum += snap[i]
		writeBucket(b, name, labelStr, formatFloat(ub), cum)
	}
	cum += snap[len(snap)-1]
	writeBucket(b, name, labelStr, "+Inf", cum)
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labelStr)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labelStr)
	b.WriteByte(' ')
	fmt.Fprintf(b, "%d", cum)
	b.WriteByte('\n')
}

func writeBucket(b *strings.Builder, name, labelStr, le string, n int64) {
	b.WriteString(name)
	b.WriteString("_bucket")
	if labelStr == "" {
		b.WriteString(`{le="`)
	} else {
		b.WriteString(labelStr[:len(labelStr)-1]) // strip closing brace
		b.WriteString(`,le="`)
	}
	b.WriteString(le)
	b.WriteString(`"} `)
	fmt.Fprintf(b, "%d", n)
	b.WriteByte('\n')
}

// HistogramVec is a histogram family keyed by label values; all
// children share one bucket layout.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values, creating
// it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(values, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}
