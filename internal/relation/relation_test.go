package relation

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func tup(id string, score float64, xs ...float64) Tuple {
	return Tuple{ID: id, Score: score, Vec: vec.Of(xs...)}
}

func testRelation(t *testing.T) *Relation {
	t.Helper()
	return MustNew("r", 1.0, []Tuple{
		tup("a", 0.5, 0, -0.5),
		tup("b", 1.0, 0, 1),
		tup("c", 0.9, 2, 2),
		tup("d", 0.1, -1, 0),
	})
}

func TestNewValidation(t *testing.T) {
	good := []Tuple{tup("a", 0.5, 1, 2)}
	cases := []struct {
		name     string
		maxScore float64
		tuples   []Tuple
	}{
		{"bad max", 0, good},
		{"nan max", math.NaN(), good},
		{"empty", 1, nil},
		{"dim mismatch", 1, []Tuple{tup("a", 0.5, 1), tup("b", 0.5, 1, 2)}},
		{"zero dim", 1, []Tuple{{ID: "a", Score: 0.5, Vec: vec.New(0)}}},
		{"score over max", 1, []Tuple{tup("a", 1.5, 1)}},
		{"zero score", 1, []Tuple{tup("a", 0, 1)}},
		{"nan vec", 1, []Tuple{tup("a", 0.5, math.NaN())}},
	}
	for _, c := range cases {
		if _, err := New("r", c.maxScore, c.tuples); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := New("r", 1, good); err != nil {
		t.Errorf("valid relation rejected: %v", err)
	}
}

func TestRelationAccessors(t *testing.T) {
	r := testRelation(t)
	if r.Len() != 4 || r.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", r.Len(), r.Dim())
	}
	if r.At(1).ID != "b" {
		t.Fatalf("At(1) = %v", r.At(1))
	}
	ts := r.Tuples()
	ts[0].ID = "mutated"
	if r.At(0).ID != "a" {
		t.Fatal("Tuples() exposes internal storage")
	}
}

func drain(t *testing.T, s Source) []Tuple {
	t.Helper()
	var out []Tuple
	for {
		tp, err := s.Next()
		if errors.Is(err, ErrExhausted) {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, tp)
	}
}

func TestDistanceSourceOrder(t *testing.T) {
	r := testRelation(t)
	s, err := OpenSource(r, DistanceAccess, vec.Of(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != DistanceAccess || s.Relation() != r {
		t.Fatal("metadata wrong")
	}
	got := drain(t, s)
	wantIDs := []string{"a", "b", "d", "c"} // dist 0.5, 1, 1, 2√2 (b before d: index tie? b=1, d=1 → index order)
	for i, id := range wantIDs {
		if got[i].ID != id {
			t.Fatalf("order %v", got)
		}
	}
}

func TestScoreSourceOrder(t *testing.T) {
	r := testRelation(t)
	s := mustOpen(t, r, ScoreAccess, nil)
	if s.Kind() != ScoreAccess {
		t.Fatal("kind wrong")
	}
	got := drain(t, s)
	want := []string{"b", "c", "a", "d"}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("order %v", got)
		}
	}
}

func TestDistanceSourceDimMismatch(t *testing.T) {
	r := testRelation(t)
	if _, err := OpenSource(r, DistanceAccess, vec.Of(0)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// Property: the R-tree-backed source yields the same distance sequence as
// the sorted source (IDs may differ on exact ties, distances must match).
func TestQuickRTreeSourceMatchesSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(3)
		n := 1 + r.Intn(80)
		tuples := make([]Tuple, n)
		for i := range tuples {
			v := vec.New(d)
			for j := range v {
				v[j] = r.NormFloat64() * 4
			}
			tuples[i] = Tuple{ID: string(rune('a' + i%26)), Score: 0.01 + r.Float64()*0.99, Vec: v}
		}
		rel, err := New("r", 1, tuples)
		if err != nil {
			return false
		}
		q := vec.New(d)
		for j := range q {
			q[j] = r.NormFloat64()
		}
		ix, err := Partition(rel, 1, HashPartition)
		if err != nil {
			return false
		}
		s1, err1 := OpenSource(rel, DistanceAccess, q)
		s2, err2 := OpenSource(ix, DistanceAccess, q)
		if err1 != nil || err2 != nil {
			return false
		}
		for {
			t1, e1 := s1.Next()
			t2, e2 := s2.Next()
			if errors.Is(e1, ErrExhausted) || errors.Is(e2, ErrExhausted) {
				return errors.Is(e1, ErrExhausted) && errors.Is(e2, ErrExhausted)
			}
			if e1 != nil || e2 != nil {
				return false
			}
			if math.Abs(t1.Vec.Dist(q)-t2.Vec.Dist(q)) > 1e-9 {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFaultySource(t *testing.T) {
	r := testRelation(t)
	wantErr := errors.New("boom")
	s := &FaultySource{Inner: mustOpen(t, r, ScoreAccess, nil), FailAfter: 2, Err: wantErr}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Default error when none specified.
	s2 := &FaultySource{Inner: mustOpen(t, r, ScoreAccess, nil), FailAfter: 0}
	if _, err := s2.Next(); err == nil {
		t.Fatal("no error from exhausted fault budget")
	}
	if s.Kind() != ScoreAccess || s.Relation() != r {
		t.Fatal("faulty source metadata wrong")
	}
}

func TestCountingSource(t *testing.T) {
	r := testRelation(t)
	s := &CountingSource{Inner: mustOpen(t, r, ScoreAccess, nil)}
	drainCount := 0
	for {
		if _, err := s.Next(); err != nil {
			break
		}
		drainCount++
	}
	if s.Reads != drainCount || s.Reads != r.Len() {
		t.Fatalf("Reads = %d, drained %d", s.Reads, drainCount)
	}
	if s.Kind() != ScoreAccess || s.Relation() != r {
		t.Fatal("counting source metadata wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := testRelation(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "r2", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() || back.Dim() != r.Dim() {
		t.Fatalf("round trip shape: %d/%d", back.Len(), back.Dim())
	}
	for i := 0; i < r.Len(); i++ {
		a, b := r.At(i), back.At(i)
		if a.ID != b.ID || a.Score != b.Score || !a.Vec.Equal(b.Vec) {
			t.Fatalf("tuple %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestCSVAttrsAndInferredMax(t *testing.T) {
	in := "id,score,x1,x2,city\nh1,0.8,1,2,Boston\nh2,0.4,3,4,Dallas\n"
	r, err := ReadCSV(strings.NewReader(in), "hotels", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxScore != 0.8 {
		t.Fatalf("inferred max = %v", r.MaxScore)
	}
	if r.At(0).Attrs["city"] != "Boston" {
		t.Fatalf("attrs = %v", r.At(0).Attrs)
	}
}

func TestCSVErrors(t *testing.T) {
	bad := []string{
		"",                           // no header
		"foo,bar\n",                  // wrong header
		"id,score\nh,0.5\n",          // no vector columns
		"id,score,x1\nh,abc,1\n",     // bad score
		"id,score,x1\nh,0.5,zzz\n",   // bad component
		"id,score,x1\nh,0.5,1,9,9\n", // field count mismatch
	}
	for i, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s), "r", 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCSVFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/rel.csv"
	r := testRelation(t)
	if err := SaveCSVFile(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile(path, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("Len = %d", back.Len())
	}
	if back.Name != "rel.csv" {
		t.Fatalf("Name = %q, want the file's base name rel.csv", back.Name)
	}
	if _, err := LoadCSVFile(dir+"/missing.csv", "", 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestAccessKindString(t *testing.T) {
	if DistanceAccess.String() != "distance" || ScoreAccess.String() != "score" {
		t.Fatal("AccessKind strings wrong")
	}
	if AccessKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
