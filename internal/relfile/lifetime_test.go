package relfile

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/vec"
)

// settleMapped collects garbage until MappedBytes reads want, and fails
// if it never does. A finalizer runs on its own goroutine after the cycle
// that found its File unreachable, so runtime.GC returning does not mean
// the File is unmapped yet.
func settleMapped(t *testing.T, want int64) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	for i := 0; i < 200 && MappedBytes() != want; i++ {
		time.Sleep(time.Millisecond)
		runtime.GC()
	}
	if got := MappedBytes(); got != want {
		t.Fatalf("MappedBytes = %d after collecting, want %d", got, want)
	}
}

// TestUnreachableFileUnmaps: a File opened and loaded, then dropped with
// every relation and stream over it, is unmapped by its finalizer, and
// an explicit Close unmaps at once and only once.
func TestUnreachableFileUnmaps(t *testing.T) {
	settleMapped(t, 0)
	path, _ := writeTemp(t, testRelation(t, 11, 400, 3), 4)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.Load("t")
		if err != nil {
			t.Fatal(err)
		}
		// A distance read builds a shard's tree from the mapped vectors.
		src, err := s.ShardSource(0, relation.DistanceAccess, vec.Of(0, 0, 0), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
		if got := MappedBytes(); got != st.Size() {
			t.Fatalf("MappedBytes = %d with the file open, want its %d bytes", got, st.Size())
		}
	}()
	settleMapped(t, 0)

	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes = %d after Close, want 0", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	settleMapped(t, 0)
}

// drainTuples returns every tuple of every shard of s, from its score
// stream, its distance stream (a tree below dimension 8, a scan from it)
// and Columns.Tuple.
func drainTuples(t *testing.T, s *relation.Sharded) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	q := make(vec.Vector, s.Relation().Dim())
	for i := 0; i < s.NumShards(); i++ {
		for _, kind := range []relation.AccessKind{relation.ScoreAccess, relation.DistanceAccess} {
			src, err := s.ShardSource(i, kind, q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			for {
				tu, err := src.Next()
				if errors.Is(err, relation.ErrExhausted) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, tu)
			}
		}
		cols := s.ShardColumns(i)
		for j := 0; j < cols.Len(); j++ {
			out = append(out, cols.Tuple(j))
		}
	}
	return out
}

// TestTupleOutlivesItsMapping: tuples taken from a mapped relation that
// was then dropped and unmapped still read their exact IDs, scores,
// attributes and vectors — the heap relation's, bit for bit. A tuple that
// aliased the mapping would fault here.
func TestTupleOutlivesItsMapping(t *testing.T) {
	for _, dim := range []int{3, 8} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			settleMapped(t, 0)
			path, heap := writeTemp(t, testRelation(t, int64(20+dim), 300, dim), 3)
			got := func() []relation.Tuple {
				f, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				s, err := f.Load("t")
				if err != nil {
					t.Fatal(err)
				}
				return drainTuples(t, s)
			}()
			settleMapped(t, 0)
			want := drainTuples(t, heap)
			if len(got) != len(want) {
				t.Fatalf("%d tuples from the mapping, %d from the heap", len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) || !maps.Equal(g.Attrs, w.Attrs) {
					t.Fatalf("tuple %d: %+v after unmapping, heap has %+v", i, g, w)
				}
				if len(g.Vec) != dim || cap(g.Vec) != dim {
					t.Fatalf("tuple %d: vector has len %d cap %d, want %d", i, len(g.Vec), cap(g.Vec), dim)
				}
				for d := range w.Vec {
					if math.Float64bits(g.Vec[d]) != math.Float64bits(w.Vec[d]) {
						t.Fatalf("tuple %d: vector %v after unmapping, heap has %v", i, g.Vec, w.Vec)
					}
				}
			}
		})
	}
}
