package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHistogramBucketBoundaries pins the le semantics: an observation
// equal to an upper bound lands in that bucket (v <= le), and values
// past the last bound land only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	// Cumulative expectations: le=1 -> {0.5, 1}, le=2 -> +{1.0000001, 2},
	// le=4 -> +{3, 4}, +Inf -> +{5, 100}.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_hist_bucket{le="1"} 2`,
		`test_hist_bucket{le="2"} 4`,
		`test_hist_bucket{le="4"} 6`,
		`test_hist_bucket{le="+Inf"} 8`,
		`test_hist_count 8`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count() = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 3 + 4 + 5 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("Sum() = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramNaN drops NaN observations instead of poisoning the sum.
func TestHistogramNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_nan", "h", []float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Errorf("after NaN observe: count=%d sum=%v, want 1, 0.5", h.Count(), h.Sum())
	}
}

// TestConcurrentRecording hammers every metric type from many
// goroutines; run under -race this is the data-race check, and the
// totals check that no observation is lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var c, g atomic.Int64
	var cv [3]atomic.Int64
	r.CounterFunc("test_counter", "c", func() float64 { return float64(c.Load()) })
	r.GaugeFunc("test_gauge", "g", func() float64 { return float64(g.Load()) })
	h := r.Histogram("test_histogram", "h", ExpBuckets(1, 2, 8))
	cvec := r.CounterFuncVec("test_counter_vec", "cv", "who")
	for i := range cv {
		cvec.Bind(func() float64 { return float64(cv[i].Load()) }, string(rune('a'+i)))
	}
	hv := r.HistogramVec("test_histogram_vec", "hv", []float64{10, 100}, "who")

	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			who := string(rune('a' + id%3))
			for j := 0; j < perG; j++ {
				c.Add(1)
				g.Add(1)
				h.Observe(float64(j % 300))
				cv[id%3].Add(1)
				hv.With(who).Observe(float64(j))
				if j%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b) // scrape while recording
				}
			}
		}(i)
	}
	wg.Wait()

	const total = goroutines * perG
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	sum := int64(0)
	for _, who := range []string{"a", "b", "c"} {
		sum += hv.With(who).Count()
	}
	if sum != total {
		t.Errorf("histogram vec total = %d, want %d", sum, total)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("exposition after concurrent load: %v", err)
	}
	for _, want := range []string{"test_counter 8000\n", "test_gauge 8000\n", `test_counter_vec{who="a"} 3000` + "\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition after concurrent load lacks %q", want)
		}
	}
}

// TestExpositionGolden pins the full text format byte for byte: family
// ordering (sorted by name), HELP/TYPE headers, label rendering and
// escaping, histogram series shape, float formatting.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	constant := func(v float64) func() float64 { return func() float64 { return v } }
	r.CounterFunc("zz_last", "sorted last", constant(3))
	r.GaugeFunc("mid_gauge", "a gauge", constant(2.5))
	cv := r.CounterFuncVec("aa_first", "sorted first, with labels", "mode", "algo")
	cv.Bind(constant(2), "batch", "CBPA")
	cv.Bind(constant(1), "stream", `we"ird\value`)
	h := r.Histogram("hist_metric", "a histogram", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	r.GaugeFunc("fn_gauge", "func-backed", constant(7))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_first sorted first, with labels
# TYPE aa_first counter
aa_first{mode="batch",algo="CBPA"} 2
aa_first{mode="stream",algo="we\"ird\\value"} 1
# HELP fn_gauge func-backed
# TYPE fn_gauge gauge
fn_gauge 7
# HELP hist_metric a histogram
# TYPE hist_metric histogram
hist_metric_bucket{le="0.5"} 1
hist_metric_bucket{le="1"} 2
hist_metric_bucket{le="+Inf"} 3
hist_metric_sum 3
hist_metric_count 3
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge 2.5
# HELP zz_last sorted last
# TYPE zz_last counter
zz_last 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := CheckExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("golden output fails own checker: %v", err)
	}
}

// TestEmptyVecOmitted: a vec with no children emits nothing, not a
// headers-only family.
func TestEmptyVecOmitted(t *testing.T) {
	r := NewRegistry()
	r.CounterFuncVec("never_used", "no children", "x")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty vec produced output:\n%s", b.String())
	}
}

// TestRegistrationPanics: duplicate and malformed registrations are
// programmer errors and must fail loudly.
func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"duplicate name", func(r *Registry) { r.CounterFunc("dup", "a", nil); r.GaugeFunc("dup", "b", nil) }},
		{"bad metric name", func(r *Registry) { r.CounterFunc("bad-name", "x", nil) }},
		{"leading digit", func(r *Registry) { r.CounterFunc("1bad", "x", nil) }},
		{"bad label name", func(r *Registry) { r.CounterFuncVec("ok_name", "x", "bad-label") }},
		{"reserved le label", func(r *Registry) { r.HistogramVec("ok_hist", "x", []float64{1}, "le") }},
		{"unsorted buckets", func(r *Registry) { r.Histogram("ok_hist2", "x", []float64{2, 1}) }},
		{"empty buckets", func(r *Registry) { r.Histogram("ok_hist3", "x", nil) }},
		{"label arity", func(r *Registry) { r.HistogramVec("ok_vec", "x", []float64{1}, "a", "b").With("only-one") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestCheckExpositionRejects feeds the checker malformed expositions it
// must reject — these are exactly the corruptions the CI gate exists to
// catch.
func TestCheckExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad metric name", "bad-name 1\n"},
		{"unquoted label", "m{l=v} 1\n"},
		{"unterminated labels", `m{l="v" 1` + "\n"},
		{"bad value", "m abc\n"},
		{"unknown TYPE", "# TYPE m sometype\nm 1\n"},
		{"duplicate sample", "m 1\nm 2\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\n" +
			"h_sum 1\nh_count 5\n"},
		{"missing +Inf bucket", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + "h_sum 1\nh_count 5\n"},
		{"count mismatch", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_sum 1\nh_count 7\n"},
		{"plain histogram sample", "# TYPE h histogram\nh 5\n"},
		{"bad escape", `m{l="a\q"} 1` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := CheckExposition(strings.NewReader(tc.in)); err == nil {
				t.Errorf("checker accepted malformed input:\n%s", tc.in)
			}
		})
	}
}

// TestCheckExpositionAccepts: well-formed edge cases must pass —
// untyped samples, timestamps, empty HELP, label-grouped histograms.
func TestCheckExpositionAccepts(t *testing.T) {
	in := `# some free comment
# HELP m
# TYPE m counter
m{a="x"} 1 1712000000000
m{a="y"} 2
# TYPE h histogram
h_bucket{mode="a",le="1"} 1
h_bucket{mode="a",le="+Inf"} 2
h_sum{mode="a"} 1.5
h_count{mode="a"} 2
h_bucket{mode="b",le="1"} 0
h_bucket{mode="b",le="+Inf"} 0
h_sum{mode="b"} 0
h_count{mode="b"} 0
untyped_sample 3.5
`
	if err := CheckExposition(strings.NewReader(in)); err != nil {
		t.Errorf("checker rejected well-formed input: %v", err)
	}
}

// TestExpBuckets pins the helper's layout.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestGaugeFuncLive: the function is read at scrape time, not
// registration time.
func TestGaugeFuncLive(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("live", "l", func() float64 { return v })
	v = 42
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "live 42\n") {
		t.Errorf("GaugeFunc not read at scrape time:\n%s", b.String())
	}
}
