package relation

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vec"
)

// sliceSource streams a materialized distance order (sortedSource).
type sliceSource struct {
	rel  *Relation
	ord  []Tuple
	keys []float64 // ascending merge key per position
	ords []int     // parent-relation ordinal per position
	pos  int
}

func (s *sliceSource) Next() (Tuple, error) {
	t, _, _, err := s.NextKeyed()
	return t, err
}

func (s *sliceSource) NextKeyed() (Tuple, float64, int, error) {
	if s.pos >= len(s.ord) {
		return Tuple{}, 0, 0, ErrExhausted
	}
	i := s.pos
	s.pos++
	return s.ord[i], s.keys[i], s.ords[i], nil
}

func (s *sliceSource) Kind() AccessKind    { return DistanceAccess }
func (s *sliceSource) Relation() *Relation { return s.rel }

// sortedSource is the oracle every distance stream is checked against:
// the columns' tuples keyed by Vec.Dist2 and sorted in full by (key,
// ordinal), a NaN key after every other and NaN keys by ordinal.
func sortedSource(rel *Relation, cols Columns, q vec.Vector) *sliceSource {
	type row struct {
		key      float64
		ord, idx int
	}
	rows := make([]row, cols.Len())
	for i := range rows {
		rows[i] = row{key: cols.Vec(i).Dist2(q), ord: cols.Ordinal(i), idx: i}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if an, bn := math.IsNaN(a.key), math.IsNaN(b.key); an != bn {
			if an {
				return 1
			}
			return -1
		}
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	src := &sliceSource{rel: rel, ord: make([]Tuple, len(rows)), keys: make([]float64, len(rows)), ords: make([]int, len(rows))}
	for j, r := range rows {
		src.ord[j], src.keys[j], src.ords[j] = cols.Tuple(r.idx), r.key, r.ord
	}
	return src
}

// sortedShard is the oracle's stream of shard i of s.
func sortedShard(s *Sharded, i int, q vec.Vector) *sliceSource {
	sh := &s.shards[i]
	return sortedSource(sh.rel, sh.cols, q)
}

// scanCase is one query shape of the scan oracle tests.
type scanCase int

const (
	scanPlain      scanCase = iota // Gaussian query
	scanCoincident                 // the query is a tuple's vector
	scanOverflow                   // some squared distances overflow to +Inf
	scanNaN                        // a NaN query coordinate: every key NaN
	scanShared                     // nine tuples in ten share one vector
	scanCases
)

func (c scanCase) String() string {
	return [...]string{"plain", "coincident", "overflow", "nan", "shared"}[c]
}

// scanFixture draws size tuples of dimension dim: Gaussian vectors, a
// share dup of them exact copies of an earlier tuple's, under
// scanOverflow every fifth tuple at 1e155 on one axis, whose squared
// distance to any Gaussian query is +Inf, and under scanShared nine in
// ten copies of the first tuple's, one run of equal keys. It returns the shard columns
// (a one-shard Partition's, or empty ones for size 0), the plain
// relation (nil for size 0) and the query.
func scanFixture(t testing.TB, dim, size int, seed int64, dup float64, c scanCase) (*Relation, Columns, *Relation, vec.Vector) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		if c == scanShared && i > 0 && r.Float64() < 0.9 {
			v = tuples[0].Vec
		} else if i > 0 && r.Float64() < dup {
			v = tuples[r.Intn(i)].Vec
		} else {
			for d := range v {
				v[d] = r.NormFloat64()
			}
			if c == scanOverflow && i%5 == 0 {
				v[r.Intn(dim)] = 1e155
			}
		}
		tuples[i] = Tuple{ID: fmt.Sprintf("s%05d", i), Score: 0.1 + 0.1*float64(r.Intn(9)), Vec: v}
	}
	q := vec.New(dim)
	for d := range q {
		q[d] = r.NormFloat64()
	}
	switch {
	case c == scanCoincident && size > 0:
		q = tuples[r.Intn(size)].Vec.Clone()
	case c == scanNaN:
		q[r.Intn(dim)] = math.NaN()
	}
	if size == 0 {
		stub, err := NewStub("empty", 1, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		return stub, &heapColumns{dim: dim}, nil, q
	}
	rel, err := New(fmt.Sprintf("scan%d", dim), 1, tuples)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Partition(rel, 1, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	return rel, s.ShardColumns(0), rel, q
}

// checkScan compares the scan over cols and, when plain is not nil, the
// plain relation's stream (a scan with no vector slab) with the oracle,
// element for element: tuple, key bits and ordinal.
func checkScan(t *testing.T, label string, rel *Relation, cols Columns, plain *Relation, q vec.Vector) {
	t.Helper()
	scan := newScanSource(rel, cols, q)
	defer scan.Close()
	if err := sameKeyedStream(scan, sortedSource(rel, cols, q)); err != nil {
		t.Fatalf("%s, slab scan vs sort: %v", label, err)
	}
	if plain == nil {
		return
	}
	src, err := OpenSource(plain, DistanceAccess, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*scanSource); !ok {
		t.Fatalf("%s: a plain relation streams %T, want a scan", label, src)
	}
	if err := sameKeyedStream(src, sortedSource(plain, (*storageOrder)(plain), q)); err != nil {
		t.Fatalf("%s, plain scan vs sort: %v", label, err)
	}
}

// TestScanStreamMatchesSort: at dims 8, 12 and 16 and sizes around the
// first round's and the sample's, the scan emits exactly the oracle's
// sequence — with duplicate vectors, a query on a tuple, squared
// distances that overflow to +Inf, and a NaN query, which must still emit
// every tuple once.
func TestScanStreamMatchesSort(t *testing.T) {
	for _, dim := range []int{8, 12, 16} {
		for _, size := range []int{0, 1, 63, 64, 65, 1000, 7500} {
			for c := scanCase(0); c < scanCases; c++ {
				for _, dup := range []float64{0, 0.3} {
					label := fmt.Sprintf("dim %d size %d %v dup %v", dim, size, c, dup)
					rel, cols, plain, q := scanFixture(t, dim, size, int64(dim*size)+int64(c), dup, c)
					checkScan(t, label, rel, cols, plain, q)
				}
			}
		}
	}
}

// FuzzScanStream draws a size, a dimension from 8 to 16, a seed and a
// duplicate rate, and checks the scan of every query shape against the
// oracle.
func FuzzScanStream(f *testing.F) {
	f.Add(uint16(65), uint8(0), int64(1), uint8(0))
	f.Add(uint16(1000), uint8(4), int64(2), uint8(128))
	f.Add(uint16(33), uint8(8), int64(3), uint8(255))
	f.Fuzz(func(t *testing.T, size uint16, dim uint8, seed int64, dup uint8) {
		n, d := int(size%3000), 8+int(dim%9)
		for c := scanCase(0); c < scanCases; c++ {
			rel, cols, plain, q := scanFixture(t, d, n, seed, float64(dup)/255, c)
			checkScan(t, fmt.Sprintf("dim %d size %d %v", d, n, c), rel, cols, plain, q)
		}
	})
}

// TestPartitionBuildsNoTreeFromDim8: Partition builds a tree per shard
// below dimension 8 and none from it; a drained distance stream over the
// partition or its AssembleSharded twin builds none either, where below
// dimension 8 the twin's first read builds its trees.
func TestPartitionBuildsNoTreeFromDim8(t *testing.T) {
	for _, dim := range []int{4, 8, 12} {
		ram, err := Partition(mixedRelation(t, dim, 3, 600), 3, GridPartition)
		if err != nil {
			t.Fatal(err)
		}
		twin := columnsTwin(t, ram)
		q := vec.New(dim)
		for name, s := range map[string]*Sharded{"Partition": ram, "twin": twin} {
			drain(t, mustOpen(t, s, DistanceAccess, q))
			for i := range s.shards {
				if built, want := s.shards[i].lazy.tree != nil, dim < scanMinDim; built != want {
					t.Errorf("dim %d %s shard %d: tree built %v, want %v", dim, name, i, built, want)
				}
			}
		}
	}
}

// TestLargeShardKeepsTree: from dimension 8 a shard of autoShardTarget
// tuples scans and builds no tree, while one tuple more keeps its tree —
// Partition builds it, the AssembleSharded twin on its first read — and
// streams it; both emit the oracle's sequence.
func TestLargeShardKeepsTree(t *testing.T) {
	for _, dim := range []int{8, 12} {
		for _, size := range []int{autoShardTarget, autoShardTarget + 1} {
			ram, err := Partition(mixedRelation(t, dim, 5, size), 1, HashPartition)
			if err != nil {
				t.Fatal(err)
			}
			wantTree := size > autoShardTarget
			q := vec.New(dim)
			for name, s := range map[string]*Sharded{"Partition": ram, "twin": columnsTwin(t, ram)} {
				label := fmt.Sprintf("dim %d size %d %s", dim, size, name)
				if err := sameKeyedStream(mustOpen(t, s, DistanceAccess, q), sortedShard(s, 0, q)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if built := s.shards[0].lazy.tree != nil; built != wantTree {
					t.Errorf("%s: tree built %v, want %v", label, built, wantTree)
				}
				src, err := s.shards[0].open(DistanceAccess, q, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, isTree := src.(*rtreeSource); isTree != wantTree {
					t.Errorf("%s: streams %T, want a tree %v", label, src, wantTree)
				}
				src.(Closer).Close()
			}
		}
	}
}

// TestScanCloseBeforeRead: a scan closed before its first read reports
// ErrExhausted and hands its buffers back.
func TestScanCloseBeforeRead(t *testing.T) {
	rel := dim8Relation(t, 2, 100)
	src, err := OpenSource(rel, DistanceAccess, vec.New(8))
	if err != nil {
		t.Fatal(err)
	}
	src.(Closer).Close()
	if _, err := src.Next(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("read after Close: %v", err)
	}
}
