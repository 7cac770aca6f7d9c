package api

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// requestSurface lists every wire field of Request with a change to it and
// whether that change must move the canonical encoding. A field that may
// not is one of the documented "never change the answer" knobs.
var requestSurface = []struct {
	field     string
	mutate    func(*Request)
	canonical bool
}{
	{"version", func(r *Request) { r.Version = "v2" }, true},
	{"query", func(r *Request) { r.Query[0]++ }, true},
	{"relations", func(r *Request) { r.Relations[0] += "x" }, true},
	{"k", func(r *Request) { r.K++ }, true},
	{"algorithm", func(r *Request) { r.Algorithm = AlgorithmCBRR }, true},
	{"access", func(r *Request) { r.Access = AccessScore }, true},
	{"weights", func(r *Request) { r.Weights.Wq++ }, true},
	{"transform", func(r *Request) { r.Transform = TransformIdentity }, true},
	{"epsilon", func(r *Request) { r.Epsilon++ }, true},
	{"maxSumDepths", func(r *Request) { r.MaxSumDepths++ }, true},
	{"maxCombinations", func(r *Request) { r.MaxCombinations++ }, true},
	{"bufferPolicy", func(r *Request) { r.BufferPolicy = BufferSpill }, false},
	{"timeoutMillis", func(r *Request) { r.TimeoutMillis++ }, false},
	{"noCache", func(r *Request) { r.NoCache = !r.NoCache }, false},
	{"trace", func(r *Request) { r.Trace = !r.Trace }, false},
	{"partial", func(r *Request) { r.Partial = PartialForbid }, false},
}

// TestRequestSurface pins the request surface to its documentation: the
// JSON fields of Request are exactly the rows of the request table in
// docs/API.md, every one of them either moves the canonical encoding or is
// named in the "never change the answer" list, and that list reads the
// same in docs/API.md, doc.go and the Canonical comment. A field cannot
// reach the wire undocumented, or leave the cache key unannounced.
func TestRequestSurface(t *testing.T) {
	goName := map[string]string{} // JSON name -> Go field name
	var fields []string
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		goName[name] = rt.Field(i).Name
		fields = append(fields, name)
	}
	slices.Sort(fields)

	var tabled, silent []string
	base := validRequest()
	if err := base.Normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	for _, row := range requestSurface {
		tabled = append(tabled, row.field)
		r := *base
		r.Query, r.Relations = slices.Clone(base.Query), slices.Clone(base.Relations)
		w := *base.Weights
		r.Weights = &w
		row.mutate(&r)
		if reflect.DeepEqual(&r, base) {
			t.Errorf("%s: the table's mutation changes nothing", row.field)
		}
		if moved := r.Canonical() != base.Canonical(); moved != row.canonical {
			t.Errorf("%s: moved the canonical encoding: %v, table says %v", row.field, moved, row.canonical)
		}
		if !row.canonical {
			silent = append(silent, row.field)
		}
	}
	slices.Sort(tabled)
	slices.Sort(silent)
	if !slices.Equal(tabled, fields) {
		t.Fatalf("requestSurface covers %v, Request has %v", tabled, fields)
	}

	_, section, _ := strings.Cut(readFile(t, "../docs/API.md"), "## The request model")
	var documented []string
	firstCell := regexp.MustCompile("^\\| `(\\w+)`")
	for _, line := range strings.Split(section, "\n") {
		if m := firstCell.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		} else if len(documented) > 0 && !strings.HasPrefix(line, "|") {
			break // end of the first table
		}
	}
	slices.Sort(documented)
	if !slices.Equal(documented, fields) {
		t.Errorf("docs/API.md request table documents %v, Request has %v", documented, fields)
	}

	// The three statements of the non-canonical list. The Markdown one
	// names wire fields in backticks, the Go comments name struct fields in
	// parentheses after the same phrase.
	const phrase = "never change the answer"
	var listed []string
	for _, para := range strings.Split(section, "\n\n") {
		if strings.Contains(strings.Join(strings.Fields(para), " "), phrase) {
			for _, m := range regexp.MustCompile("`(\\w+)`").FindAllStringSubmatch(para, -1) {
				listed = append(listed, m[1])
			}
			break
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, silent) {
		t.Errorf("docs/API.md lists %v as fields that %s, Canonical ignores %v", listed, phrase, silent)
	}
	var want []string
	for _, f := range silent {
		want = append(want, goName[f])
	}
	slices.Sort(want)
	inParens := regexp.MustCompile(phrase + ` \(([\w, ]+)\)`)
	for _, path := range []string{"doc.go", "canonical.go"} {
		prose := strings.Join(strings.Fields(strings.ReplaceAll(readFile(t, path), "//", " ")), " ")
		m := inParens.FindStringSubmatch(prose)
		if m == nil {
			t.Errorf("%s: no comment lists the fields that %s", path, phrase)
			continue
		}
		got := strings.Split(m[1], ", ")
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists %v as fields that %s, Canonical ignores %v", path, got, phrase, want)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
