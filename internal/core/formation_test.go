package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/vec"
)

// fixedInstance is randomInstance with the arity, relation size,
// dimensionality, K and weights fixed by the caller or here.
func fixedInstance(r *rand.Rand, n, size, d, k int) instance {
	rels, q := instanceData(r, n, d, func() int { return size })
	fn := agg.MustEuclideanSum(agg.Weights{Ws: 1, Wq: 0.1, Wmu: 0.05}, agg.LogScore)
	return instance{rels: rels, q: q, fn: fn, k: k}
}

// formationCounters is one row of the pinned table.
type formationCounters struct {
	formed, pruned int64
	sumDepths      int
}

// pinnedFormation holds Engine.Run's formation counters as recorded at
// commit b5b76a6 (the linear prune scan), in the iteration order of
// TestFormationCountersPinned.
var pinnedFormation = []formationCounters{
	{1122, 1091, 67},    // n=2 distance CBRR(HRJN) bs=1
	{1122, 1091, 67},    // n=2 distance CBRR(HRJN) bs=7
	{1122, 1091, 67},    // n=2 distance CBRR(HRJN) bs=64
	{1054, 1023, 65},    // n=2 distance CBPA(HRJN*) bs=1
	{1054, 1023, 65},    // n=2 distance CBPA(HRJN*) bs=7
	{1054, 1023, 65},    // n=2 distance CBPA(HRJN*) bs=64
	{600, 569, 49},      // n=2 distance TBRR bs=1
	{600, 569, 49},      // n=2 distance TBRR bs=7
	{600, 569, 49},      // n=2 distance TBRR bs=64
	{450, 419, 43},      // n=2 distance TBPA bs=1
	{450, 419, 43},      // n=2 distance TBPA bs=7
	{450, 419, 43},      // n=2 distance TBPA bs=64
	{29756, 29647, 345}, // n=2 score CBRR(HRJN) bs=1
	{29756, 29647, 345}, // n=2 score CBRR(HRJN) bs=7
	{29756, 29647, 345}, // n=2 score CBRR(HRJN) bs=64
	{28545, 28436, 338}, // n=2 score CBPA(HRJN*) bs=1
	{28545, 28436, 338}, // n=2 score CBPA(HRJN*) bs=7
	{28545, 28436, 338}, // n=2 score CBPA(HRJN*) bs=64
	{20022, 19913, 283}, // n=2 score TBRR bs=1
	{20022, 19913, 283}, // n=2 score TBRR bs=7
	{20022, 19913, 283}, // n=2 score TBRR bs=64
	{18034, 17925, 269}, // n=2 score TBPA bs=1
	{18034, 17925, 269}, // n=2 score TBPA bs=7
	{18034, 17925, 269}, // n=2 score TBPA bs=64
	{2940, 2889, 43},    // n=3 distance CBRR(HRJN) bs=1
	{2940, 2889, 43},    // n=3 distance CBRR(HRJN) bs=7
	{2940, 2889, 43},    // n=3 distance CBRR(HRJN) bs=64
	{2940, 2895, 43},    // n=3 distance CBPA(HRJN*) bs=1
	{2940, 2895, 43},    // n=3 distance CBPA(HRJN*) bs=7
	{2940, 2895, 43},    // n=3 distance CBPA(HRJN*) bs=64
	{1331, 1280, 33},    // n=3 distance TBRR bs=1
	{1331, 1280, 33},    // n=3 distance TBRR bs=7
	{1331, 1280, 33},    // n=3 distance TBRR bs=64
	{792, 747, 28},      // n=3 distance TBPA bs=1
	{792, 747, 28},      // n=3 distance TBPA bs=7
	{792, 747, 28},      // n=3 distance TBPA bs=64
	{57798, 57707, 116}, // n=3 score CBRR(HRJN) bs=1
	{57798, 57707, 116}, // n=3 score CBRR(HRJN) bs=7
	{57798, 57707, 116}, // n=3 score CBRR(HRJN) bs=64
	{50505, 50418, 111}, // n=3 score CBPA(HRJN*) bs=1
	{50505, 50418, 111}, // n=3 score CBPA(HRJN*) bs=7
	{50505, 50418, 111}, // n=3 score CBPA(HRJN*) bs=64
	{31744, 31653, 95},  // n=3 score TBRR bs=1
	{31744, 31653, 95},  // n=3 score TBRR bs=7
	{31744, 31653, 95},  // n=3 score TBRR bs=64
	{21504, 21411, 84},  // n=3 score TBPA bs=1
	{21504, 21411, 84},  // n=3 score TBPA bs=7
	{21504, 21411, 84},  // n=3 score TBPA bs=64
	{24336, 24171, 50},  // n=4 distance CBRR(HRJN) bs=1
	{24336, 24171, 50},  // n=4 distance CBRR(HRJN) bs=7
	{24336, 24171, 50},  // n=4 distance CBRR(HRJN) bs=64
	{20449, 20290, 48},  // n=4 distance CBPA(HRJN*) bs=1
	{20449, 20290, 48},  // n=4 distance CBPA(HRJN*) bs=7
	{20449, 20290, 48},  // n=4 distance CBPA(HRJN*) bs=64
	{3136, 2971, 30},    // n=4 distance TBRR bs=1
	{3136, 2971, 30},    // n=4 distance TBRR bs=7
	{3136, 2971, 30},    // n=4 distance TBRR bs=64
	{1960, 1814, 27},    // n=4 distance TBPA bs=1
	{1960, 1814, 27},    // n=4 distance TBPA bs=7
	{1960, 1814, 27},    // n=4 distance TBPA bs=64
	{38416, 38166, 56},  // n=4 score CBRR(HRJN) bs=1
	{38416, 38166, 56},  // n=4 score CBRR(HRJN) bs=7
	{38416, 38166, 56},  // n=4 score CBRR(HRJN) bs=64
	{38416, 38176, 56},  // n=4 score CBPA(HRJN*) bs=1
	{38416, 38176, 56},  // n=4 score CBPA(HRJN*) bs=7
	{38416, 38176, 56},  // n=4 score CBPA(HRJN*) bs=64
	{38416, 38166, 56},  // n=4 score TBRR bs=1
	{38416, 38166, 56},  // n=4 score TBRR bs=7
	{38416, 38166, 56},  // n=4 score TBRR bs=64
	{35672, 35422, 55},  // n=4 score TBPA bs=1
	{35672, 35422, 55},  // n=4 score TBPA bs=7
	{35672, 35422, 55},  // n=4 score TBPA bs=64
}

// TestFormationCountersPinned holds the batch path's cost counters to the
// values the linear prune scan produced, row for row: n ∈ {2, 3, 4}, both
// access kinds, all four algorithms, block widths 1/7/64. Any rewrite of
// enumerate must prune the identical set and charge the identical counts.
func TestFormationCountersPinned(t *testing.T) {
	var got []formationCounters
	var rows []string
	for _, shape := range []struct{ n, size int }{{2, 400}, {3, 40}, {4, 14}} {
		in := fixedInstance(rand.New(rand.NewSource(int64(1600+shape.n))), shape.n, shape.size, 3, 8)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				for _, bs := range []int{1, 7, 64} {
					res := runAlgo(t, in, kind, Options{Algorithm: algo, blockSize: bs})
					st := res.Stats
					got = append(got, formationCounters{st.CombinationsFormed, st.CombinationsPruned, st.SumDepths})
					rows = append(rows, fmt.Sprintf("\t{%d, %d, %d}, // n=%d %v %v bs=%d",
						st.CombinationsFormed, st.CombinationsPruned, st.SumDepths, shape.n, kind, algo, bs))
				}
			}
		}
	}
	if len(got) != len(pinnedFormation) {
		t.Fatalf("pinned table has %d rows, run produced %d:\n%s", len(pinnedFormation), len(got), strings.Join(rows, "\n"))
	}
	for i := range got {
		if got[i] != pinnedFormation[i] {
			t.Errorf("row %d: got %+v, pinned %+v (%s)", i, got[i], pinnedFormation[i], strings.TrimSpace(rows[i]))
		}
	}
}

// boundCounters is one row of the pinned bound table.
type boundCounters struct {
	qpSolves, partials, boundUpdates int64
}

// pinnedBounds holds Engine.Run's tight-bound counters as recorded at
// commit 834ed7e (subset heaps on an indexed heap), in the iteration
// order of TestBoundCountersPinned.
var pinnedBounds = []boundCounters{
	{159, 50, 49},    // n=2 distance TBRR eager=false
	{698, 50, 49},    // n=2 distance TBRR eager=true
	{139, 44, 43},    // n=2 distance TBPA eager=false
	{537, 44, 43},    // n=2 distance TBPA eager=true
	{11, 284, 283},   // n=2 score TBRR eager=false
	{11, 284, 283},   // n=2 score TBRR eager=true
	{11, 270, 269},   // n=2 score TBPA eager=false
	{11, 270, 269},   // n=2 score TBPA eager=true
	{575, 397, 33},   // n=3 distance TBRR eager=false
	{2123, 397, 33},  // n=3 distance TBRR eager=true
	{436, 288, 28},   // n=3 distance TBPA eager=false
	{1367, 288, 28},  // n=3 distance TBPA eager=true
	{39, 304, 95},    // n=3 score TBRR eager=false
	{39, 304, 95},    // n=3 score TBRR eager=true
	{39, 271, 84},    // n=3 score TBPA eager=false
	{39, 271, 84},    // n=3 score TBPA eager=true
	{2551, 2048, 30}, // n=4 distance TBRR eager=false
	{7230, 2048, 30}, // n=4 distance TBRR eager=true
	{1927, 1496, 27}, // n=4 distance TBPA eager=false
	{4951, 1496, 27}, // n=4 distance TBPA eager=true
	{138, 384, 56},   // n=4 score TBRR eager=false
	{138, 384, 56},   // n=4 score TBRR eager=true
	{138, 380, 55},   // n=4 score TBPA eager=false
	{138, 380, 55},   // n=4 score TBPA eager=true
}

// TestBoundCountersPinned holds the tight bounds' upkeep counters to the
// recorded values, row for row: n ∈ {2, 3, 4}, both access kinds, TBRR
// and TBPA, the lazy schedule and Algorithm 2 (EagerBounds). Any rewrite
// of the subset heaps or the score walk must solve, form and update
// exactly as many times.
func TestBoundCountersPinned(t *testing.T) {
	var got []boundCounters
	var rows []string
	for _, shape := range []struct{ n, size int }{{2, 400}, {3, 40}, {4, 14}} {
		in := fixedInstance(rand.New(rand.NewSource(int64(1600+shape.n))), shape.n, shape.size, 3, 8)
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range []Algorithm{TBRR, TBPA} {
				for _, eager := range []bool{false, true} {
					st := runAlgo(t, in, kind, Options{Algorithm: algo, EagerBounds: eager}).Stats
					got = append(got, boundCounters{st.QPSolves, st.PartialsTracked, st.BoundUpdates})
					rows = append(rows, fmt.Sprintf("\t{%d, %d, %d}, // n=%d %v %v eager=%v",
						st.QPSolves, st.PartialsTracked, st.BoundUpdates, shape.n, kind, algo, eager))
				}
			}
		}
	}
	if len(got) != len(pinnedBounds) {
		t.Fatalf("pinned table has %d rows, run produced %d:\n%s", len(pinnedBounds), len(got), strings.Join(rows, "\n"))
	}
	for i := range got {
		if got[i] != pinnedBounds[i] {
			t.Errorf("row %d: got %+v, pinned %+v (%s)", i, got[i], pinnedBounds[i], strings.TrimSpace(rows[i]))
		}
	}
}

// transcript is a Tracer that hashes a run's pull sequence: every pull's
// relation and depth, every threshold with the access depth it was set
// at, each as a tagged 8-byte word.
type transcript struct {
	h   hash.Hash
	buf [8]byte
}

func (tr *transcript) word(v uint64) {
	binary.LittleEndian.PutUint64(tr.buf[:], v)
	tr.h.Write(tr.buf[:])
}

func (tr *transcript) TracePull(relation, depth int, _ time.Duration) {
	tr.word(0)
	tr.word(uint64(relation))
	tr.word(uint64(depth))
}

func (tr *transcript) TraceBound(sumDepths int, threshold float64) {
	tr.word(1)
	tr.word(uint64(sumDepths))
	tr.word(math.Float64bits(threshold))
}

func (tr *transcript) TraceBuffer(string, int) {}

// pinnedTranscripts holds the first 8 bytes of each run's transcript
// digest as recorded at commit 038d1cc, in the iteration order of
// TestPullTranscriptPinned. The distance CBRR and CBPA rows were
// re-recorded when corner caps came to be read at squared-distance keys,
// and the 22 tight rows that moved when both tight bounds came to fold
// the score's own solo terms (n = 2 distance TBRR and TBPA, n = 2 score
// TBPA, n = 3 and 4 TBRR and TBPA under both access kinds): in both, only
// their threshold bits moved.
var pinnedTranscripts = []uint64{
	0xb1fc5156b8a2a9a2, // n=2 distance CBRR(HRJN) eager=false
	0xb1fc5156b8a2a9a2, // n=2 distance CBRR(HRJN) eager=true
	0xdd0fcf9a7f15d115, // n=2 distance CBPA(HRJN*) eager=false
	0xdd0fcf9a7f15d115, // n=2 distance CBPA(HRJN*) eager=true
	0x07ef41936dcee37b, // n=2 distance TBRR eager=false
	0x07ef41936dcee37b, // n=2 distance TBRR eager=true
	0x21b9ce5501806de3, // n=2 distance TBPA eager=false
	0x21b9ce5501806de3, // n=2 distance TBPA eager=true
	0x48edcd142a92b511, // n=2 score CBRR(HRJN) eager=false
	0x48edcd142a92b511, // n=2 score CBRR(HRJN) eager=true
	0x16181a01690e36a9, // n=2 score CBPA(HRJN*) eager=false
	0x16181a01690e36a9, // n=2 score CBPA(HRJN*) eager=true
	0x3eaead3e1fede402, // n=2 score TBRR eager=false
	0x3eaead3e1fede402, // n=2 score TBRR eager=true
	0xa1deef6e06ca877c, // n=2 score TBPA eager=false
	0xa1deef6e06ca877c, // n=2 score TBPA eager=true
	0x4478004beddf32f4, // n=3 distance CBRR(HRJN) eager=false
	0x4478004beddf32f4, // n=3 distance CBRR(HRJN) eager=true
	0xf3e6b9c0027e4f98, // n=3 distance CBPA(HRJN*) eager=false
	0xf3e6b9c0027e4f98, // n=3 distance CBPA(HRJN*) eager=true
	0x2e87eefe5b231652, // n=3 distance TBRR eager=false
	0x2e87eefe5b231652, // n=3 distance TBRR eager=true
	0x62798744733d6f8d, // n=3 distance TBPA eager=false
	0x62798744733d6f8d, // n=3 distance TBPA eager=true
	0xc0cdb1d92b5bd6ff, // n=3 score CBRR(HRJN) eager=false
	0xc0cdb1d92b5bd6ff, // n=3 score CBRR(HRJN) eager=true
	0x932b3a7aea4099cd, // n=3 score CBPA(HRJN*) eager=false
	0x932b3a7aea4099cd, // n=3 score CBPA(HRJN*) eager=true
	0xc4937a734acafa60, // n=3 score TBRR eager=false
	0xc4937a734acafa60, // n=3 score TBRR eager=true
	0x192c2f2be50fa371, // n=3 score TBPA eager=false
	0x192c2f2be50fa371, // n=3 score TBPA eager=true
	0x8105552e06a4e03b, // n=4 distance CBRR(HRJN) eager=false
	0x8105552e06a4e03b, // n=4 distance CBRR(HRJN) eager=true
	0x3ca1cf9dd8596ac4, // n=4 distance CBPA(HRJN*) eager=false
	0x3ca1cf9dd8596ac4, // n=4 distance CBPA(HRJN*) eager=true
	0xb85b2ed30b722433, // n=4 distance TBRR eager=false
	0xb85b2ed30b722433, // n=4 distance TBRR eager=true
	0x262b29dbc5508936, // n=4 distance TBPA eager=false
	0x262b29dbc5508936, // n=4 distance TBPA eager=true
	0x2a8a73d917161aa0, // n=4 score CBRR(HRJN) eager=false
	0x2a8a73d917161aa0, // n=4 score CBRR(HRJN) eager=true
	0xa7282b6701a7db2e, // n=4 score CBPA(HRJN*) eager=false
	0xa7282b6701a7db2e, // n=4 score CBPA(HRJN*) eager=true
	0xd96f5f5d1e6ac949, // n=4 score TBRR eager=false
	0xd96f5f5d1e6ac949, // n=4 score TBRR eager=true
	0x3bb557edc45936a1, // n=4 score TBPA eager=false
	0x3bb557edc45936a1, // n=4 score TBPA eager=true
}

// TestPullTranscriptPinned holds Engine.Run's whole pull sequence to the
// recorded digests, row for row: fixedInstance at n ∈ {2, 3, 4}, both
// access kinds, all four algorithms, the
// lazy schedule and Algorithm 2. Each digest covers every pull, every
// threshold's bits, each result's score bits and ranks, and the final
// threshold and DNF flag, so a rewrite of a bound or a pull strategy that
// moves any of them, even by one ulp, fails here.
func TestPullTranscriptPinned(t *testing.T) {
	insts := []struct {
		name string
		in   instance
	}{
		{"n=2", fixedInstance(rand.New(rand.NewSource(1602)), 2, 400, 3, 8)},
		{"n=3", fixedInstance(rand.New(rand.NewSource(1603)), 3, 40, 3, 8)},
		{"n=4", fixedInstance(rand.New(rand.NewSource(1604)), 4, 14, 3, 8)},
	}
	var got []uint64
	var rows []string
	for _, c := range insts {
		for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
			for _, algo := range Algorithms {
				for _, eager := range []bool{false, true} {
					tr := &transcript{h: sha256.New()}
					res := runAlgo(t, c.in, kind, Options{Algorithm: algo, EagerBounds: eager, Tracer: tr})
					for _, comb := range res.Combinations {
						tr.word(2)
						tr.word(math.Float64bits(comb.Score))
						for _, rk := range comb.Ranks {
							tr.word(uint64(rk))
						}
					}
					tr.word(3)
					tr.word(math.Float64bits(res.Threshold))
					if res.DNF {
						tr.word(1)
					} else {
						tr.word(0)
					}
					d := binary.BigEndian.Uint64(tr.h.Sum(nil))
					got = append(got, d)
					rows = append(rows, fmt.Sprintf("\t0x%016x, // %s %v %v eager=%v", d, c.name, kind, algo, eager))
				}
			}
		}
	}
	if len(got) != len(pinnedTranscripts) {
		t.Fatalf("pinned table has %d rows, run produced %d:\n%s", len(pinnedTranscripts), len(got), strings.Join(rows, "\n"))
	}
	for i := range got {
		if got[i] != pinnedTranscripts[i] {
			t.Errorf("row %d: got %#016x, pinned %#016x (%s)", i, got[i], pinnedTranscripts[i], strings.TrimSpace(rows[i]))
		}
	}
}

// TestSatMulMatchesRepeatedSatAdd: the one-step tail charge of candidates
// equals what the linear scan charged — count separate satAdds of the
// subtree size — including once the counter saturates.
func TestSatMulMatchesRepeatedSatAdd(t *testing.T) {
	const max = math.MaxInt64
	starts := []int64{0, 1, 12345, max / 2, max - 100, max - 1, max}
	counts := []int64{0, 1, 2, 7, 100}
	sizes := []int64{1, 3, 1 << 20, max / 100, max / 7, max / 2, max - 1, max}
	for _, a := range starts {
		for _, count := range counts {
			for _, c := range sizes {
				want := a
				for i := int64(0); i < count; i++ {
					want = satAdd(want, c)
				}
				if got := satAdd(a, satMul(count, c)); got != want {
					t.Errorf("satAdd(%d, satMul(%d, %d)) = %d, repeated satAdd = %d", a, count, c, got, want)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(64))
	for i := 0; i < 2000; i++ {
		a, c := r.Int63(), r.Int63()>>uint(r.Intn(63))
		count := int64(r.Intn(50))
		want := a
		for j := int64(0); j < count; j++ {
			want = satAdd(want, c)
		}
		if got := satAdd(a, satMul(count, c)); got != want {
			t.Fatalf("satAdd(%d, satMul(%d, %d)) = %d, repeated satAdd = %d", a, count, c, got, want)
		}
	}
}

// TestPruneFloorSurvivesEmission: a full prune buffer stays full — floor
// on — across popBest, because it then retains only what the consumer can
// still take.
func TestPruneFloorSurvivesEmission(t *testing.T) {
	const max = 5
	var stats Stats
	arena := newCombArena(2)
	b := newSessionBuffer(arena, max, &stats, nil)
	for i := 0; i < 3*max; i++ {
		b.offer(float64(i), []int32{int32(i), 0})
	}
	for popped := 1; popped <= max+2; popped++ {
		ref, ok := b.popBest()
		if !ok {
			t.Fatalf("pop %d: buffer empty", popped)
		}
		arena.release(ref.slot)
		want := max - popped
		if want < 1 {
			want = 1 // past max: one at a time, refilled below
		}
		if popped < max {
			if got := b.buffered(); got != want {
				t.Fatalf("after %d pops: retained %d, want %d", popped, got, want)
			}
			floor, ok := b.floor()
			if !ok {
				t.Fatalf("after %d pops: full buffer reports no floor", popped)
			}
			if worst, _ := b.heap.PeekMin(); floor != worst.score {
				t.Fatalf("after %d pops: floor %v, worst retained %v", popped, floor, worst.score)
			}
		}
		// Offers below the floor bounce, offers above it replace the worst,
		// and the retention never exceeds what is left to take.
		b.offer(-1, []int32{99, 0})
		b.offer(100+float64(popped), []int32{int32(100 + popped), 0})
		if got := b.buffered(); got != want {
			t.Fatalf("after %d pops and two offers: retained %d, want %d", popped, got, want)
		}
	}
	if stats.PeakBuffered > max {
		t.Fatalf("peak buffered %d exceeds cap %d", stats.PeakBuffered, max)
	}

	// End to end: under a DNF cap, certified emissions plus the drain are
	// the batch top-K, and never more than MaxBuffered.
	in := fixedInstance(rand.New(rand.NewSource(1616)), 2, 40, 2, 6)
	for _, kind := range []relation.AccessKind{relation.DistanceAccess, relation.ScoreAccess} {
		opts := Options{Algorithm: TBPA, MaxSumDepths: 14}
		batch := runAlgo(t, in, kind, opts)
		if !batch.DNF {
			t.Fatalf("%v: fixture did not hit the cap", kind)
		}
		opts.MaxBuffered = in.k
		emitted, drained, terminal, st := drainIterator(t, in, kind, opts)
		if !errors.Is(terminal, ErrIteratorDNF) {
			t.Fatalf("%v: terminal %v, want DNF", kind, terminal)
		}
		if err := combosIdentical(append(emitted, drained...), batch.Combinations); err != nil {
			t.Fatalf("%v: emitted %d + drained %d vs batch top-%d: %v", kind, len(emitted), len(drained), in.k, err)
		}
		if st.PeakBuffered > in.k {
			t.Fatalf("%v: peak buffered %d exceeds cap %d", kind, st.PeakBuffered, in.k)
		}
	}
}

// deepFixture is the shape of the benchmark's single_engine workload:
// 2 relations × 20 000 tuples × dim 4, each a one-shard partition behind
// its shared R-tree, unit weights.
func deepFixture(t testing.TB) ([]*relation.Sharded, *agg.EuclideanSum) {
	t.Helper()
	cfg := datagen.Defaults()
	cfg.Dim, cfg.BaseTuples, cfg.Seed = 4, 20_000, 11
	rels, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ixs := make([]*relation.Sharded, len(rels))
	for i, rel := range rels {
		if ixs[i], err = relation.Partition(rel, 1); err != nil {
			t.Fatal(err)
		}
	}
	return ixs, agg.MustEuclideanSum(agg.Weights{Ws: 1, Wq: 1, Wmu: 1}, agg.LogScore)
}

func deepSources(t testing.TB, ixs []*relation.Sharded, q vec.Vector) []relation.Source {
	t.Helper()
	out := make([]relation.Source, len(ixs))
	for i, ix := range ixs {
		s, err := relation.OpenSource(ix, relation.DistanceAccess, q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestScoredCandidatesCeiling counts what formation costs after pruning:
// the combinations that reach a scoring kernel (formed − pruned) for a
// top-20 stream bounded to MaxBuffered = K. The count repeats exactly, so
// losing either the floor across emissions or the pruning itself shows
// here without a timing.
func TestScoredCandidatesCeiling(t *testing.T) {
	// Recorded 1 343 of 79 283 formed over the eight queries. With a floor
	// that switches off after every emission (a buffer that counts as full
	// only at MaxBuffered entries) the same run scores 15 550.
	const ceiling = 1_500
	ixs, fn := deepFixture(t)
	r := rand.New(rand.NewSource(16))
	var scored, formed int64
	for trial := 0; trial < 8; trial++ {
		q := vec.New(4)
		for c := range q {
			q[c] = (r.Float64() - 0.5) * 1.5
		}
		const k = 20
		it, err := NewIterator(deepSources(t, ixs, q), Options{
			Algorithm: TBPA, Query: q, Agg: fn, MaxBuffered: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, err := it.Next(); err != nil {
				t.Fatal(err)
			}
		}
		st := it.Stats()
		scored += st.CombinationsFormed - st.CombinationsPruned
		formed += st.CombinationsFormed
	}
	if scored > ceiling {
		t.Fatalf("%d of %d formed combinations reached the scorer, ceiling %d", scored, formed, ceiling)
	}
}

// TestStepDoesNotAllocate: on a warmed engine a pull allocates nothing —
// the candidate lists, the bySolo heaps and their walk frontiers grow by
// amortised append like every other prefix column, never per formation.
// n = 3 puts a pruned outer level above the block level.
func TestStepDoesNotAllocate(t *testing.T) {
	in := fixedInstance(rand.New(rand.NewSource(3)), 3, 2000, 3, 10)
	it, err := NewIterator(in.sources(t, relation.DistanceAccess), Options{
		Algorithm: CBRR, Query: in.q, Agg: in.fn, MaxBuffered: in.k,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := it.e
	step := func() {
		if err := e.step(e.pull.choose(e)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		step()
	}
	if e.stats.CombinationsPruned == 0 {
		t.Fatal("warm-up never pruned: the fixture does not exercise the floor")
	}
	// AllocsPerRun reports the integer mean, so the handful of column
	// doublings that may fall inside the window do not count.
	if allocs := testing.AllocsPerRun(90, step); allocs != 0 {
		t.Fatalf("step allocates %v times per pull on a warmed engine", allocs)
	}
}

// TestDeepScoreStepDoesNotAllocate is TestStepDoesNotAllocate for a
// score-access TBPA session shaped like the benchmark's score class, two
// relations pulled a thousand deep: formation's walk and the tight
// bound's walk over the bySolo heaps allocate nothing per pull either.
func TestDeepScoreStepDoesNotAllocate(t *testing.T) {
	in := fixedInstance(rand.New(rand.NewSource(3)), 2, 4000, 4, 20)
	it, err := NewIterator(in.sources(t, relation.ScoreAccess), Options{
		Algorithm: TBPA, Query: in.q, Agg: in.fn, MaxBuffered: in.k,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	e := it.e
	step := func() {
		if err := e.step(e.pull.choose(e)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if e.stats.CombinationsPruned == 0 || e.stats.QPSolves == 0 {
		t.Fatal("warm-up never pruned or never solved: the fixture does not exercise both walks")
	}
	if allocs := testing.AllocsPerRun(90, step); allocs != 0 {
		t.Fatalf("step allocates %v times per pull on a warmed score-access engine", allocs)
	}
}

// BenchmarkOpenSession is what open enumeration costs: the first 100,
// 2 000, 20 000 and 100 000 results of a TBPA session that leaves
// MaxBuffered at 0, over deepFixture, cycling three query points.
// Beside time and allocations it reports the peak live heap (the
// runtime's post-GC figure, sampled every 1 024 results and once, forced,
// at the end) and the entries spilled per session. Run it at the parent
// of a buffer change too (it uses nothing newer than NewIterator) to
// compare.
func BenchmarkOpenSession(b *testing.B) {
	ixs, fn := deepFixture(b)
	r := rand.New(rand.NewSource(16))
	queries := make([]vec.Vector, 3)
	for i := range queries {
		queries[i] = vec.New(4)
		for c := range queries[i] {
			queries[i][c] = (r.Float64() - 0.5) * 1.5
		}
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	liveHeap := func() uint64 {
		metrics.Read(live)
		return live[0].Value.Uint64()
	}
	for _, n := range []int{100, 2000, 20000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			var peak uint64
			var spilled int64
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				it, err := NewIterator(deepSources(b, ixs, q), Options{Algorithm: TBPA, Query: q, Agg: fn})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if _, err := it.Next(); err != nil {
						b.Fatal(err)
					}
					if j%1024 == 1023 {
						peak = max(peak, liveHeap())
					}
				}
				b.StopTimer()
				runtime.GC()
				peak = max(peak, liveHeap())
				spilled += it.Stats().SpilledCombinations
				b.StartTimer()
				it.Close()
			}
			b.ReportMetric(float64(peak)/(1<<20), "live-MiB")
			b.ReportMetric(float64(spilled)/float64(b.N), "spilled/op")
		})
	}
}
