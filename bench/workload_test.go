package main

import (
	"bytes"
	"reflect"
	"testing"
)

func listBytes(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	reqs, err := w.requests(seed, n, false)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, r := range reqs {
		all = append(append(all, r.body...), '\n')
	}
	return all
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		n := w.requestCount(1)
		a, b := listBytes(t, w, 7, n), listBytes(t, w, 7, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request lists", w.name)
		}
		if c := listBytes(t, w, 8, n); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", w.name)
		}
	}
}

func TestDataDoesNotDependOnTheRequestSeed(t *testing.T) {
	for _, w := range workloads() {
		small := w.sized(300)
		a, err := prepareInputs(small, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, err := prepareInputs(small, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.rels {
			if !reflect.DeepEqual(a.rels[i].Tuples(), b.rels[i].Tuples()) {
				t.Errorf("%s: relation %d differs between two preparations", w.name, i)
			}
		}
		if got := small.dataConfig().Seed; got != dataSeed {
			t.Errorf("%s: data seed %d, want the fixed %d", w.name, got, dataSeed)
		}
	}
}

func TestRequestCountRoundsToWholePeriods(t *testing.T) {
	for _, w := range workloads() {
		for _, s := range []float64{0.001, 1, 6, 12, 12.5} {
			n := w.requestCount(s)
			unit := blocks * w.period
			if n < unit || n%unit != 0 {
				t.Errorf("%s: requestCount(%v) = %d, not a positive multiple of %d", w.name, s, n, unit)
			}
			if want := w.rate * s; float64(n) < want || (n > unit && float64(n) >= want+float64(unit)) {
				t.Errorf("%s: requestCount(%v) = %d, want the first multiple of %d at or above %.1f", w.name, s, n, unit, want)
			}
		}
	}
}

func TestRequestListShape(t *testing.T) {
	wantShares := map[string]map[string]float64{
		"single_engine": {"tight": 0.6, "corner": 0.2, "score": 0.2},
		"hot_stream":    {"hot": 0.9, "cold": 0.1},
		"coord3_wire":   {"center": 0.5, "edge": 0.5},
		"relfile_spill": {"spill": 0.5, "prune": 0.5},
	}
	for _, w := range workloads() {
		n := w.requestCount(2)
		reqs, err := w.requests(3, n, false)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		streams := 0
		for i, r := range reqs {
			counts[r.class]++
			if r.stream != ((i/2)%2 == 1) {
				t.Fatalf("%s: request %d stream=%v, want pairs to alternate batch/stream", w.name, i, r.stream)
			}
			if r.stream {
				streams++
			}
			if r.replace != (w.replaceEvery > 0 && i > 0 && i%w.replaceEvery == 0) {
				t.Fatalf("%s: request %d replace=%v", w.name, i, r.replace)
			}
			if r.twin >= 0 {
				o := reqs[r.twin]
				if o.twin != i || o.class == r.class || !reflect.DeepEqual(o.req.Query, r.req.Query) {
					t.Fatalf("%s: request %d and its twin %d do not mirror each other", w.name, i, r.twin)
				}
			}
		}
		if streams*2 != n {
			t.Errorf("%s: %d of %d requests stream, want half", w.name, streams, n)
		}
		for class, share := range wantShares[w.name] {
			if got := float64(counts[class]) / float64(n); got != share {
				t.Errorf("%s: class %s is %.3f of the list, want %.3f", w.name, class, got, share)
			}
		}
	}
}

func TestHotKeysAreSkewedAndColdKeysUnique(t *testing.T) {
	w, err := findWorkload("hot_stream")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := w.requests(1, 4000, false)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]int{}
	cold := map[string]bool{}
	for _, r := range reqs {
		key := string(r.body)
		if r.class == "cold" {
			if cold[key] {
				t.Fatalf("cold request repeats: %s", key)
			}
			cold[key] = true
			continue
		}
		hot[key]++
	}
	if len(hot) > hotSetSize || len(hot) < hotSetSize/2 {
		t.Errorf("%d distinct hot keys, want at most %d and most of them used", len(hot), hotSetSize)
	}
	most := 0
	for _, c := range hot {
		if c > most {
			most = c
		}
	}
	// floor(u²·32) = 0 for u < 1/√32: the hottest key takes ~17.7%.
	if share := float64(most) / 3600; share < 0.14 || share > 0.22 {
		t.Errorf("hottest key takes %.3f of hot traffic, want about 0.177", share)
	}
}
