package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/vec"
)

// flatRelation is size tuples of dimension dim that all sit on one point:
// every axis has extent zero and only the ordinal orders a cut.
func flatRelation(t testing.TB, size, dim int) *Relation {
	t.Helper()
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for c := range v {
			v[c] = 1.5
		}
		tuples[i] = Tuple{ID: fmt.Sprintf("t%03d", i), Score: 0.5, Vec: v}
	}
	rel, err := New("flat", 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// decimalRelation is tieRelation's shape — few distinct values an axis, one
// tuple in four an exact duplicate — on coordinates that are tenths, which
// binary floats cannot hold: every distance rounds,
// where tieRelation's small integers mostly compute exactly and so cannot
// show a bound that is unsound only in its last bits.
func decimalRelation(t testing.TB, r *rand.Rand, size, dim int) *Relation {
	t.Helper()
	tuples := make([]Tuple, size)
	for i := range tuples {
		v := vec.New(dim)
		for c := range v {
			v[c] = 0.1 * float64(r.Intn(7)-3)
		}
		if i > 0 && r.Intn(4) == 0 {
			v = tuples[r.Intn(i)].Vec
		}
		tuples[i] = Tuple{ID: fmt.Sprintf("t%03d", i), Score: 0.2 + 0.2*float64(r.Intn(4)), Vec: v}
	}
	rel, err := New("decimal", 1.0, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// referenceBoxes is gridGroups written the slow, obvious way — a full sort
// of the run at every level of the cut — and is what the selection must
// reproduce group for group.
func referenceBoxes(r *Relation, group []int, n int) [][]int {
	if n == 1 {
		g := slices.Clone(group)
		sort.Ints(g)
		return [][]int{g}
	}
	axis, widest := 0, math.Inf(-1)
	for d := 0; d < r.dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, ord := range group {
			lo, hi = math.Min(lo, r.tuples[ord].Vec[d]), math.Max(hi, r.tuples[ord].Vec[d])
		}
		if hi-lo > widest {
			axis, widest = d, hi-lo
		}
	}
	sorted := slices.Clone(group)
	sort.Slice(sorted, func(a, b int) bool {
		xa, xb := r.tuples[sorted[a]].Vec[axis], r.tuples[sorted[b]].Vec[axis]
		return xa < xb || (xa == xb && sorted[a] < sorted[b])
	})
	k := len(sorted) * (n / 2) / n
	return append(referenceBoxes(r, sorted[:k], n/2), referenceBoxes(r, sorted[k:], n-n/2)...)
}

// TestGridBoxes: Partition's grid is a partition into size-balanced
// boxes, and the quickselect that cuts them picks exactly the groups a
// full sort would — over 20 seeds, dimensions 1–6, ties on every axis,
// 2–16 shards, more shards than tuples, and all-identical vectors.
func TestGridBoxes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + int(seed%6)
		size := 1 + r.Intn(120)
		if seed%5 == 4 {
			size = 1 + r.Intn(12) // fewer tuples than most shard counts
		}
		rel := tieRelation(t, seed, size, dim)
		if seed%7 == 3 {
			rel = flatRelation(t, size, dim)
		}
		for n := 2; n <= 16; n++ {
			label := fmt.Sprintf("seed %d (size=%d dim=%d) n=%d", seed, size, dim, n)
			got, want := gridGroups(rel, n), referenceBoxes(rel, wholeGroup(size), n)
			if len(got) != n || len(want) != n {
				t.Fatalf("%s: %d groups, reference %d", label, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s: group %d is %v, reference %v", label, i, got[i], want[i])
				}
			}

			s, err := Partition(rel, n)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumShards() != min(n, size) {
				t.Fatalf("%s: %d shards, want %d", label, s.NumShards(), min(n, size))
			}
			sizes := s.ShardSizes()
			if slices.Max(sizes)-slices.Min(sizes) > 1 {
				t.Fatalf("%s: shard sizes %v differ by more than 1", label, sizes)
			}
			seen := make([]int, size)
			for i := 0; i < s.NumShards(); i++ {
				cols, b := s.ShardColumns(i), s.ShardBounds(i)
				for j := 0; j < cols.Len(); j++ {
					seen[cols.Ordinal(j)]++
					for d, x := range cols.Vec(j) {
						if x < b.Min[d] || x > b.Max[d] {
							t.Fatalf("%s: shard %d tuple %d lies outside its rectangle", label, i, j)
						}
					}
				}
			}
			for ord, c := range seen {
				if c != 1 {
					t.Fatalf("%s: tuple %d is in %d shards", label, ord, c)
				}
			}
		}
	}
}

// latent wraps a shard stream with the bound its ShardBounds advertise,
// the way a coordinator's remote source does.
type latent struct {
	KeyedSource
	bound float64
}

func (l latent) KeyLowerBound() float64 { return l.bound }

// boundQueries returns query points placed against a rectangle: inside it,
// on a face, on a corner, one ulp outside that corner, and far outside
// along one axis and along all.
func boundQueries(r *rand.Rand, lo, hi []float64) []vec.Vector {
	dim := len(lo)
	inside, face, far1, farAll := vec.New(dim), vec.New(dim), vec.New(dim), vec.New(dim)
	for d := 0; d < dim; d++ {
		inside[d] = lo[d] + r.Float64()*(hi[d]-lo[d])
		face[d] = inside[d]
		far1[d] = inside[d]
		farAll[d] = hi[d] + 1e6*(1+r.Float64())
	}
	axis := r.Intn(dim)
	face[axis] = hi[axis]
	far1[axis] = lo[axis] - 1e3*(1+r.Float64())
	near := vec.Vector(slices.Clone(lo))
	near[axis] = math.Nextafter(lo[axis], math.Inf(-1))
	return []vec.Vector{inside, face, vec.Vector(slices.Clone(lo)), near, far1, farAll}
}

// TestShardBoundNeverExceedsFirstKey is the soundness of shard pruning on
// the bits the merge compares: whatever the relation (dims 1–8, tied
// coordinates, duplicates, one-tuple shards whose rectangle is a point),
// layout (grid boxes or overlapping shards), shard count and query
// position, Dist2LowerBound is at most the first key both of the shard's
// distance streams emit, and a merge over streams held latent at that
// bound emits what the eager merge does.
func TestShardBoundNeverExceedsFirstKey(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 48; trial++ {
		dim := 1 + trial%8
		rel := decimalRelation(t, r, 1+r.Intn(90), dim)
		n := 1 + trial%16
		for _, l := range BothLayouts(t, rel, n) {
			s := l.Sharded
			b := s.ShardBounds(r.Intn(s.NumShards()))
			for qi, q := range boundQueries(r, b.Min, b.Max) {
				label := fmt.Sprintf("trial %d (size=%d dim=%d %s/%d) query %d", trial, rel.Len(), dim, l.Name, s.NumShards(), qi)
				eager := make([]Source, s.NumShards())
				lazy := make([]KeyedSource, s.NumShards())
				for i := range eager {
					bound := s.ShardBounds(i).Dist2LowerBound(q)
					for _, useRTree := range []bool{true, false} {
						src, err := s.ShardSource(i, DistanceAccess, q, nil, useRTree)
						if err != nil {
							t.Fatal(err)
						}
						if _, key, _, err := src.(KeyedSource).NextKeyed(); err != nil || bound > key {
							t.Fatalf("%s: shard %d (rtree=%v) bound %v exceeds first key %v (err %v)", label, i, useRTree, bound, key, err)
						}
					}
					var err error
					if eager[i], err = s.ShardSource(i, DistanceAccess, q, nil, true); err != nil {
						t.Fatal(err)
					}
					src, err := s.ShardSource(i, DistanceAccess, q, nil, true)
					if err != nil {
						t.Fatal(err)
					}
					lazy[i] = latent{src.(KeyedSource), bound}
				}
				want, err := s.Merge(eager)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewMergedSource(rel, DistanceAccess, lazy)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := drain(t, got), drain(t, want); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: the latent merge emits a different sequence", label)
				}
			}
		}
	}
}

// FuzzShardKeyLowerBound is that soundness at every magnitude: the
// relations and queries TestShardBoundNeverExceedsFirstKey draws, scaled
// by 2^exp, from where squared distances go subnormal to where they
// overflow to +Inf. Every key both distance streams of a shard emit is
// the tuple's Dist2 bit for bit, and Dist2LowerBound is at most each.
func FuzzShardKeyLowerBound(f *testing.F) {
	for _, exp := range []int16{0, -520, -540, -560, -1000, 500, 511, 512, 513, 600} {
		f.Add(int64(23), uint8(2), uint8(40), uint8(5), exp)
	}
	f.Add(int64(7), uint8(7), uint8(89), uint8(15), int16(-537))
	f.Fuzz(func(t *testing.T, seed int64, dim, size, shards uint8, exp int16) {
		r := rand.New(rand.NewSource(seed))
		d := 1 + int(dim)%8
		scale := func(v vec.Vector) vec.Vector {
			out := vec.New(len(v))
			for c, x := range v {
				out[c] = math.Ldexp(x, int(exp))
			}
			return out
		}
		base := decimalRelation(t, r, 1+int(size)%90, d)
		tuples := make([]Tuple, base.Len())
		for i := range tuples {
			tuples[i] = base.At(i)
			tuples[i].Vec = scale(tuples[i].Vec)
		}
		rel, err := New("scaled", base.MaxScore, tuples)
		if err != nil {
			t.Skip(err) // coordinates overflowed
		}
		for _, l := range BothLayouts(t, rel, 1+int(shards)%16) {
			s := l.Sharded
			for i := 0; i < s.NumShards(); i++ {
				b := s.ShardBounds(i)
				far := vec.New(d)
				for c := range far {
					far[c] = 0.1 * float64(r.Intn(41)-20)
				}
				for qi, q := range append(boundQueries(r, b.Min, b.Max), vec.New(d), scale(far)) {
					bound := b.Dist2LowerBound(q)
					if !(bound >= 0) {
						t.Fatalf("%s shard %d query %d: bound %v", l.Name, i, qi, bound)
					}
					for _, useRTree := range []bool{false, true} {
						src, err := s.ShardSource(i, DistanceAccess, q, nil, useRTree)
						if err != nil {
							t.Fatal(err)
						}
						for {
							tu, key, _, err := src.(KeyedSource).NextKeyed()
							if errors.Is(err, ErrExhausted) {
								break
							}
							if err != nil {
								t.Fatal(err)
							}
							if d2 := tu.Vec.Dist2(q); math.Float64bits(key) != math.Float64bits(d2) {
								t.Fatalf("%s shard %d query %d (rtree=%v): %s keyed %v, Dist2 %v", l.Name, i, qi, useRTree, tu.ID, key, d2)
							}
							if bound > key {
								t.Fatalf("%s shard %d query %d (rtree=%v): bound %v exceeds %s's key %v; bounds %+v, q %v",
									l.Name, i, qi, useRTree, bound, tu.ID, key, b, q)
							}
						}
					}
				}
			}
		}
	})
}

// branchyLowerBound is Dist2LowerBound with the rectangle's distance
// summed the branchy way, a term only for the axes q lies outside of.
func branchyLowerBound(b ShardBounds, q vec.Vector) float64 {
	var s float64
	for i := range q {
		switch {
		case q[i] < b.Min[i]:
			x := b.Min[i] - q[i]
			s += x * x
		case q[i] > b.Max[i]:
			x := q[i] - b.Max[i]
			s += x * x
		}
	}
	if !(s >= 0x1p-1022) {
		return 0
	}
	return s
}

// TestShardBoundMatchesBranchyRect: the branch-free rectangle distance
// leaves every shard's lower bound with the bits it had, on the grid
// fixtures — ties, tenths, one-point rectangles — at every query position
// boundQueries places against each shard's rectangle, and at ±0.
func TestShardBoundMatchesBranchyRect(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for trial := 0; trial < 48; trial++ {
		dim := 1 + trial%8
		size := 1 + r.Intn(90)
		var rel *Relation
		switch trial % 3 {
		case 0:
			rel = tieRelation(t, int64(trial), size, dim)
		case 1:
			rel = decimalRelation(t, r, size, dim)
		default:
			rel = flatRelation(t, size, dim)
		}
		s, err := Partition(rel, 1+trial%16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.NumShards(); i++ {
			b := s.ShardBounds(i)
			zero, negZero := vec.New(dim), vec.New(dim)
			for c := range negZero {
				negZero[c] = math.Copysign(0, -1)
			}
			for qi, q := range append(boundQueries(r, b.Min, b.Max), zero, negZero) {
				got, want := b.Dist2LowerBound(q), branchyLowerBound(b, q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d shard %d query %d: bound %v, branchy %v", trial, i, qi, got, want)
				}
			}
		}
	}
}
