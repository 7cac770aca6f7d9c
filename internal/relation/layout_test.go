package relation_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/relfile"
	"repro/internal/vec"
)

// addr is the address of v's first coordinate.
func addr(v vec.Vector) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(v))) }

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// attrsRelation is dim8Relation with an attribute map on every third
// tuple, so a head's Attrs is checked as well as its ID and score.
func attrsRelation(t *testing.T) *relation.Relation {
	base := relation.Dim8Relation(t, 5, 700)
	tuples := base.Tuples()
	for i := range tuples {
		if i%3 == 0 {
			tuples[i].Attrs = map[string]string{"i": fmt.Sprint(i)}
		}
	}
	rel, err := relation.New(base.Name, base.MaxScore, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestHeapColumnsLayout: a partitioned shard's columns hold every vector
// at offset i·dim of one slab, in storage order, bit-equal to the parent
// tuple it came from; Tuple(i) is that parent tuple field by field — the
// form the columns held before they were columnar — and Vec(i) is the
// vector Tuple(i) carries.
func TestHeapColumnsLayout(t *testing.T) {
	rel := attrsRelation(t)
	dim := rel.Dim()
	for _, strategy := range []relation.PartitionStrategy{relation.HashPartition, relation.GridPartition} {
		for _, n := range []int{1, 4} {
			s, err := relation.Partition(rel, n, strategy)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.NumShards(); i++ {
				label := fmt.Sprintf("%v/%d shard %d", strategy, n, i)
				cols := s.ShardColumns(i)
				base := addr(cols.Vec(0))
				for j := 0; j < cols.Len(); j++ {
					v := cols.Vec(j)
					if len(v) != dim || cap(v) != dim {
						t.Fatalf("%s: Vec(%d) has len %d cap %d, want %d", label, j, len(v), cap(v), dim)
					}
					if got, want := addr(v), base+uintptr(j*dim*8); got != want {
						t.Fatalf("%s: Vec(%d) at slab offset %d bytes, want %d", label, j, got-base, want-base)
					}
					old := rel.At(cols.Ordinal(j))
					tu := cols.Tuple(j)
					if tu.ID != old.ID || math.Float64bits(tu.Score) != math.Float64bits(old.Score) ||
						!sameBits(tu.Vec, old.Vec) || !sameBits(v, old.Vec) || addr(tu.Vec) != addr(v) {
						t.Fatalf("%s: Tuple(%d) = %+v, parent tuple %d is %+v", label, j, tu, cols.Ordinal(j), old)
					}
					if reflect.ValueOf(tu.Attrs).UnsafePointer() != reflect.ValueOf(old.Attrs).UnsafePointer() {
						t.Fatalf("%s: Tuple(%d) does not share its parent's attribute map", label, j)
					}
				}
			}
		}
	}
}

// ramAndRelfile partitions rel into 3 grid shards and maps the same
// shards back from a relfile written to a temporary directory.
func ramAndRelfile(t *testing.T, rel *relation.Relation) map[string]*relation.Sharded {
	t.Helper()
	ram, err := relation.Partition(rel, 3, relation.GridPartition)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "view.prox")
	if err := relfile.Write(path, ram); err != nil {
		t.Fatal(err)
	}
	f, err := relfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	mapped, err := f.Load(rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*relation.Sharded{"ram": ram, "relfile": mapped}
}

// TestRTreeStreamVecIsTreeView: every tuple a dim-4 shard's R-tree stream
// emits carries a vector bit-equal to its column's, as a view of the
// tree's leaf slab — not of the columns, so on a relfile shard it does
// not alias the mapping.
func TestRTreeStreamVecIsTreeView(t *testing.T) {
	q := vec.Of(0.5, -0.25, 1, 0)
	dim := q.Dim()
	for name, s := range ramAndRelfile(t, relation.Dim4Relation(t, 7, 900)) {
		for i := 0; i < s.NumShards(); i++ {
			cols := s.ShardColumns(i)
			idx := make(map[int]int, cols.Len())
			for j := 0; j < cols.Len(); j++ {
				idx[cols.Ordinal(j)] = j
			}
			tree := relation.ShardTree(s, i)
			treeLo, treeHi := addr(tree.Point(0)), addr(tree.Point(tree.Len()-1))+uintptr(8*dim)
			colsLo, colsHi := addr(cols.Vec(0)), addr(cols.Vec(cols.Len()-1))+uintptr(8*dim)
			src, err := s.ShardSource(i, relation.DistanceAccess, q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			keyed := src.(relation.KeyedSource)
			for n := 0; ; n++ {
				tu, _, ord, err := keyed.NextKeyed()
				if errors.Is(err, relation.ErrExhausted) {
					if n != cols.Len() {
						t.Fatalf("%s shard %d: %d tuples streamed, want %d", name, i, n, cols.Len())
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if want := cols.Vec(idx[ord]); !sameBits(tu.Vec, want) {
					t.Fatalf("%s shard %d: %s streamed %v, its column holds %v", name, i, tu.ID, tu.Vec, want)
				}
				if p := addr(tu.Vec); p < treeLo || p >= treeHi || p >= colsLo && p < colsHi {
					t.Fatalf("%s shard %d: %s's vector is not a view of the tree slab", name, i, tu.ID)
				}
				if cap(tu.Vec) != dim {
					t.Fatalf("%s shard %d: %s's vector has capacity %d, want %d", name, i, tu.ID, cap(tu.Vec), dim)
				}
			}
		}
	}
}

// TestScanStreamVecIsColumnView is TestRTreeStreamVecIsTreeView at dim 8,
// where a shard scans: every tuple a distance stream emits carries its
// column's own view — a view of the heap slab, or on a relfile shard of
// the mapping, which is never unmapped on the serving path — with its
// capacity clipped to the vector.
func TestScanStreamVecIsColumnView(t *testing.T) {
	q := vec.Of(0.5, -0.25, 1, 0, 0.75, -1, 0.125, 2)
	dim := q.Dim()
	for name, s := range ramAndRelfile(t, relation.Dim8Relation(t, 7, 900)) {
		for i := 0; i < s.NumShards(); i++ {
			cols := s.ShardColumns(i)
			idx := make(map[int]int, cols.Len())
			for j := 0; j < cols.Len(); j++ {
				idx[cols.Ordinal(j)] = j
			}
			slab := cols.VecSlab()
			if len(slab) != dim*cols.Len() || addr(slab) != addr(cols.Vec(0)) {
				t.Fatalf("%s shard %d: VecSlab holds %d floats at %#x, want %d at vector 0's %#x",
					name, i, len(slab), addr(slab), dim*cols.Len(), addr(cols.Vec(0)))
			}
			src, err := s.ShardSource(i, relation.DistanceAccess, q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			keyed := src.(relation.KeyedSource)
			for n := 0; ; n++ {
				tu, _, ord, err := keyed.NextKeyed()
				if errors.Is(err, relation.ErrExhausted) {
					if n != cols.Len() {
						t.Fatalf("%s shard %d: %d tuples streamed, want %d", name, i, n, cols.Len())
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if want := cols.Vec(idx[ord]); addr(tu.Vec) != addr(want) {
					t.Fatalf("%s shard %d: %s's vector is not its column's view", name, i, tu.ID)
				}
				if cap(tu.Vec) != dim {
					t.Fatalf("%s shard %d: %s's vector has capacity %d, want %d", name, i, tu.ID, cap(tu.Vec), dim)
				}
			}
		}
	}
}
