package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func validRequest() *Request {
	return &Request{
		Query:     []float64{0.1, 0.2},
		Relations: []string{"hotels", "restaurants"},
		K:         5,
	}
}

// TestNormalizeDefaults: a minimal request is rewritten to the canonical
// full form.
func TestNormalizeDefaults(t *testing.T) {
	r := validRequest()
	if err := r.Normalize(Limits{}); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if r.Version != Version {
		t.Errorf("Version = %q, want %q", r.Version, Version)
	}
	if r.Algorithm != AlgorithmTBPA {
		t.Errorf("Algorithm = %q, want %q", r.Algorithm, AlgorithmTBPA)
	}
	if r.Access != AccessDistance {
		t.Errorf("Access = %q, want %q", r.Access, AccessDistance)
	}
	if r.Transform != TransformLog {
		t.Errorf("Transform = %q, want %q", r.Transform, TransformLog)
	}
	if r.Weights == nil || *r.Weights != (Weights{Ws: 1, Wq: 1, Wmu: 1}) {
		t.Errorf("Weights = %+v, want unit weights", r.Weights)
	}
}

// TestNormalizeAliases: every accepted alias folds onto its canonical
// spelling, so semantically equal requests become structurally equal.
func TestNormalizeAliases(t *testing.T) {
	cases := []struct {
		field string
		in    func(*Request)
		check func(*Request) bool
	}{
		{"hrjn->cbrr", func(r *Request) { r.Algorithm = "HRJN" }, func(r *Request) bool { return r.Algorithm == AlgorithmCBRR }},
		{"hrjn*->cbpa", func(r *Request) { r.Algorithm = "hrjn*" }, func(r *Request) bool { return r.Algorithm == AlgorithmCBPA }},
		{"TBRR case", func(r *Request) { r.Algorithm = "TbRr" }, func(r *Request) bool { return r.Algorithm == AlgorithmTBRR }},
		{"id->identity", func(r *Request) { r.Transform = "id" }, func(r *Request) bool { return r.Transform == TransformIdentity }},
		{"SCORE case", func(r *Request) { r.Access = "Score" }, func(r *Request) bool { return r.Access == AccessScore }},
		{"DROP case", func(r *Request) { r.Overflow = "Drop" }, func(r *Request) bool { return r.Overflow == OverflowDrop }},
		{"empty overflow stays empty", func(r *Request) { r.Overflow = "" }, func(r *Request) bool { return r.Overflow == "" }},
	}
	for _, tc := range cases {
		r := validRequest()
		tc.in(r)
		if err := r.Normalize(Limits{}); err != nil {
			t.Errorf("%s: Normalize: %v", tc.field, err)
			continue
		}
		if !tc.check(r) {
			t.Errorf("%s: alias not canonicalized: %+v", tc.field, r)
		}
	}
}

// TestNormalizeRejects: the full table of malformed requests, one field
// at a time.
func TestNormalizeRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"bad version", func(r *Request) { r.Version = "v2" }},
		{"no query", func(r *Request) { r.Query = nil }},
		{"NaN query", func(r *Request) { r.Query = []float64{0.1, nan} }},
		{"Inf query", func(r *Request) { r.Query = []float64{inf, 0} }},
		{"one relation", func(r *Request) { r.Relations = r.Relations[:1] }},
		{"empty relation name", func(r *Request) { r.Relations = []string{"a", ""} }},
		{"k zero", func(r *Request) { r.K = 0 }},
		{"k negative", func(r *Request) { r.K = -3 }},
		{"bad algorithm", func(r *Request) { r.Algorithm = "quantum" }},
		{"bad access", func(r *Request) { r.Access = "random" }},
		{"bad transform", func(r *Request) { r.Transform = "sqrt" }},
		{"bad overflow", func(r *Request) { r.Overflow = "buffer" }},
		{"negative weight", func(r *Request) { r.Weights = &Weights{Ws: -1, Wq: 1, Wmu: 1} }},
		{"NaN weight", func(r *Request) { r.Weights = &Weights{Ws: nan, Wq: 1, Wmu: 1} }},
		{"infinite weight", func(r *Request) { r.Weights = &Weights{Ws: inf, Wq: 1, Wmu: 1} }},
		{"all-zero weights", func(r *Request) { r.Weights = &Weights{} }},
		{"negative epsilon", func(r *Request) { r.Epsilon = -0.5 }},
		{"NaN epsilon", func(r *Request) { r.Epsilon = nan }},
		{"infinite epsilon", func(r *Request) { r.Epsilon = inf }},
		{"negative timeout", func(r *Request) { r.TimeoutMillis = -5 }},
		{"negative maxSumDepths", func(r *Request) { r.MaxSumDepths = -100 }},
		{"negative maxCombinations", func(r *Request) { r.MaxCombinations = -1 }},
	}
	for _, tc := range cases {
		r := validRequest()
		tc.mutate(r)
		err := r.Normalize(Limits{})
		if err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, r)
			continue
		}
		if err.Code != CodeBadRequest {
			t.Errorf("%s: code = %q, want %q", tc.name, err.Code, CodeBadRequest)
		}
	}
}

// TestNormalizeMaxK: the server-side K limit applies only when set.
func TestNormalizeMaxK(t *testing.T) {
	r := validRequest()
	r.K = 10_000
	if err := r.Normalize(Limits{}); err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	r2 := validRequest()
	r2.K = 10_000
	err := r2.Normalize(Limits{MaxK: 100})
	if err == nil || err.Code != CodeBadRequest {
		t.Fatalf("MaxK=100 accepted K=10000 (err %v)", err)
	}
}

// TestNormalizeIdempotent: normalizing twice is a no-op.
func TestNormalizeIdempotent(t *testing.T) {
	r := validRequest()
	r.Algorithm = "HRJN*"
	if err := r.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	before := *r
	weights := *r.Weights
	if err := r.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, *r) || *r.Weights != weights {
		t.Errorf("re-normalize changed the request:\n  %+v\n  %+v", before, *r)
	}
}

// TestCanonicalEquivalence: requests that differ only in aliases,
// defaults, or transport knobs share one canonical encoding — the
// property the cache key and single-flight identity rely on.
func TestCanonicalEquivalence(t *testing.T) {
	base := validRequest()
	if err := base.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	variants := []func(*Request){
		func(r *Request) {}, // explicit defaults spelled out
		func(r *Request) { r.Algorithm = "TBPA" },
		func(r *Request) { r.Access = "Distance" },
		func(r *Request) { r.Transform = "" },
		func(r *Request) { r.Weights = &Weights{Ws: 1, Wq: 1, Wmu: 1} },
		func(r *Request) { r.TimeoutMillis = 5000 },    // transport knob: excluded
		func(r *Request) { r.NoCache = true },          // transport knob: excluded
		func(r *Request) { r.Overflow = OverflowDrop }, // delivery knob: excluded
		// Ignored by servers: excluded, so caching/coalescing across it
		// is sound.
		func(r *Request) { r.BufferPolicy = BufferSpill },
	}
	for i, mutate := range variants {
		r := validRequest()
		mutate(r)
		if err := r.Normalize(Limits{}); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if r.Canonical() != base.Canonical() {
			t.Errorf("variant %d: canonical diverged:\n  %s\n  %s", i, r.Canonical(), base.Canonical())
		}
	}
}

// TestCanonicalSensitivity: every answer-affecting field must move the
// encoding.
func TestCanonicalSensitivity(t *testing.T) {
	base := validRequest()
	if err := base.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*Request){
		"k":         func(r *Request) { r.K = 6 },
		"algorithm": func(r *Request) { r.Algorithm = AlgorithmCBRR },
		"access":    func(r *Request) { r.Access = AccessScore },
		"transform": func(r *Request) { r.Transform = TransformIdentity },
		"weights":   func(r *Request) { r.Weights = &Weights{Ws: 2, Wq: 1, Wmu: 1} },
		"epsilon":   func(r *Request) { r.Epsilon = 0.5 },
		"query":     func(r *Request) { r.Query = []float64{0.1, 0.3} },
		"relations": func(r *Request) { r.Relations = []string{"hotels", "bars"} },
		"caps":      func(r *Request) { r.MaxSumDepths = 7 },
	}
	for name, mutate := range variants {
		r := validRequest()
		mutate(r)
		if err := r.Normalize(Limits{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Canonical() == base.Canonical() {
			t.Errorf("%s: change did not move the canonical encoding %q", name, base.Canonical())
		}
	}
}

// TestRequestJSONRoundTrip: the wire tags survive a marshal/unmarshal
// cycle with canonical equality.
func TestRequestJSONRoundTrip(t *testing.T) {
	r := validRequest()
	r.Epsilon = 0.25
	r.Weights = &Weights{Ws: 2, Wq: 1, Wmu: 0.5}
	if err := r.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if aerr := back.Normalize(Limits{}); aerr != nil {
		t.Fatal(aerr)
	}
	if back.Canonical() != r.Canonical() {
		t.Errorf("round trip moved the canonical encoding:\n  %s\n  %s", r.Canonical(), back.Canonical())
	}
}

// TestCollectStream reassembles a response and rejects malformed event
// sequences.
func TestCollectStream(t *testing.T) {
	c1 := Combination{Score: -1, Tuples: []Tuple{{Relation: "a", ID: "x"}}}
	c2 := Combination{Score: -2, Tuples: []Tuple{{Relation: "a", ID: "y"}}}
	events := []ResultEvent{
		{Type: EventResult, Rank: 1, Result: &c1},
		{Type: EventResult, Rank: 2, Result: &c2},
		{Type: EventSummary, Summary: &Summary{Count: 2, Cached: true, Cost: Cost{SumDepths: 7}}},
	}
	resp, aerr := CollectStream(events)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if len(resp.Results) != 2 || resp.Results[0].Score != -1 || !resp.Cached || resp.Cost.SumDepths != 7 {
		t.Errorf("collected response wrong: %+v", resp)
	}
	if _, aerr := CollectStream(events[:2]); aerr == nil {
		t.Error("missing summary accepted")
	}
	if _, aerr := CollectStream([]ResultEvent{{Type: EventError, Error: Errorf(CodeTimeout, "late")}}); aerr == nil || aerr.Code != CodeTimeout {
		t.Errorf("error event not propagated: %v", aerr)
	}
}

// TestErrorHTTPStatus pins the code→status table.
func TestErrorHTTPStatus(t *testing.T) {
	for code, want := range map[ErrorCode]int{
		CodeBadRequest: 400, CodeNotFound: 404, CodeConflict: 409,
		CodeTimeout: 504, CodeCanceled: 408, CodeOverloaded: 503,
		CodeDNF: 422, CodeInternal: 500,
	} {
		if got := code.HTTPStatus(); got != want {
			t.Errorf("%s: status %d, want %d", code, got, want)
		}
	}
	if s := Errorf(CodeDNF, "capped after %d accesses", 7).Error(); !strings.Contains(s, "dnf") || !strings.Contains(s, "7 accesses") {
		t.Errorf("Error() = %q", s)
	}
}
