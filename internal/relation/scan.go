package relation

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/vec"
)

// scanMinDim is the dimension from which a shard of at most
// autoShardTarget tuples streams its distance order by scanning its
// vectors (scanSource) instead of traversing an R-tree, and builds no
// tree. At dim 8 a best-first traversal opens about half the leaves of a
// shard to return a few hundred points; below it the tree wins, and so it
// does on larger shards, whose keying a scan pays in full on every query
// (BenchmarkDistanceStream measures both crossovers).
const scanMinDim = 8

// scans reports whether the shard's distance stream is a scan of its
// columns rather than a traversal of its R-tree.
func (sh *shard) scans() bool {
	return sh.rel.dim >= scanMinDim && sh.cols.Len() <= autoShardTarget
}

// scanSource streams a shard in distance order from one pass over its
// vectors, with no index. Its first read computes every tuple's squared
// distance to the query into a key column. Emission then runs in rounds:
// a round collects the keys in (lo, hi] and sorts them by (key, ordinal),
// so that equal keys never straddle two rounds and the stream is the
// canonical (squared distance, ordinal) order. hi is read from a sorted
// sample of the keys so that the rounds hold about 32, 64, 128, … keys; the
// last round takes every key left. A prefix of p tuples thus costs one
// pass over the vectors, a pass over the keys per round, and sorts of
// O(p) keys.
//
// Keys compare as bit patterns with the sign cleared (distKey), as the
// R-tree traversal's leaves order them: a squared distance is never
// negative, +Inf (a sum that overflowed) sorts after every finite key and
// a NaN, which only a NaN query makes, last. A tuple's Vec is its
// column's view, so on a relfile shard it aliases the mapping.
type scanSource struct {
	rel  *Relation
	cols Columns
	scr  *scanScratch // the query and the buffers; nil once closed
	// keyed reports that scr.keys holds this stream's keys (the first
	// read computes them).
	keyed bool
	from  uint64 // the least distKey the next round collects
	last  bool   // the round in scr.round is the last
	step  int    // the size the next round aims at
	pos   int    // next unread element of scr.round
}

// scanHit is one key of a round: its distKey and storage index.
type scanHit struct {
	key uint64
	idx int
}

// scanScratch is a scan stream's reusable memory: a copy of the query,
// the key column, the sorted sample and the round being emitted. Close
// hands it to the next stream opened, so a stream that is drained and
// closed allocates nothing for its keys once the pool is warm.
type scanScratch struct {
	q      []float64
	keys   []float64
	sample []uint64
	round  []scanHit
}

var scanPool sync.Pool

const (
	// scanFirstRound is the number of keys the first round aims at; each
	// later round aims at twice its predecessor's.
	scanFirstRound = 32
	// scanSampleSize caps the keys sampled to place round bounds.
	scanSampleSize = 128
)

// newScanSource opens the scan stream of cols for q, which has the
// columns' dimension.
func newScanSource(rel *Relation, cols Columns, q vec.Vector) *scanSource {
	scr, _ := scanPool.Get().(*scanScratch)
	if scr == nil {
		scr = &scanScratch{}
	}
	scr.q = append(scr.q[:0], q...)
	return &scanSource{rel: rel, cols: cols, scr: scr, step: scanFirstRound}
}

func (s *scanSource) Next() (Tuple, error) {
	t, _, _, err := s.NextKeyed()
	return t, err
}

// NextKeyed implements KeyedSource.
func (s *scanSource) NextKeyed() (Tuple, float64, int, error) {
	scr := s.scr
	if scr == nil {
		return Tuple{}, 0, 0, ErrExhausted
	}
	if !s.keyed {
		s.computeKeys()
	}
	for s.pos == len(scr.round) {
		if s.last {
			return Tuple{}, 0, 0, ErrExhausted
		}
		s.nextRound()
	}
	i := scr.round[s.pos].idx
	s.pos++
	return s.cols.Tuple(i), scr.keys[i], s.cols.Ordinal(i), nil
}

// computeKeys fills the key column and the sorted sample.
func (s *scanSource) computeKeys() {
	scr, n := s.scr, s.cols.Len()
	scr.keys = slices.Grow(scr.keys[:0], n)[:n]
	if slab := s.cols.VecSlab(); slab != nil {
		vec.Dist2Slab(scr.keys, slab, scr.q)
	} else {
		for i := range scr.keys {
			scr.keys[i] = s.cols.Vec(i).Dist2(scr.q)
		}
	}
	m := min(n, scanSampleSize)
	scr.sample = slices.Grow(scr.sample[:0], m)[:m]
	for j := range scr.sample {
		scr.sample[j] = distKey(scr.keys[j*n/m])
	}
	slices.Sort(scr.sample)
	scr.round = scr.round[:0]
	s.keyed = true
}

// nextRound collects and sorts the next round's keys: those from s.from
// up to a sampled bound that about want keys lie at or below — the keys
// of every round so far, 32 + 64 + … + s.step — or every key left when
// the sample has no such bound.
func (s *scanSource) nextRound() {
	scr := s.scr
	n, m := len(scr.keys), len(scr.sample)
	want := 2*s.step - scanFirstRound
	hi := uint64(math.MaxUint64)
	if want < n {
		// The sample's j-th least key has about (j+1)·n/(m+1) keys at or
		// below it.
		j := (want*(m+1)+n-1)/n - 1
		for j < m && scr.sample[j] < s.from {
			j++
		}
		if j < m {
			hi = scr.sample[j]
		}
	}
	s.last = hi == math.MaxUint64
	round := scr.round[:0]
	for i, k := range scr.keys {
		if d := distKey(k); d-s.from <= hi-s.from {
			round = append(round, scanHit{key: d, idx: i})
		}
	}
	// Ordinals are unique, so (key, ordinal) is a total order and an
	// unstable sort gives the canonical one.
	slices.SortFunc(round, func(a, b scanHit) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(s.cols.Ordinal(a.idx), s.cols.Ordinal(b.idx))
	})
	scr.round, s.pos = round, 0
	s.from, s.step = hi+1, 2*s.step
}

// Close implements Closer: every later read reports ErrExhausted, and the
// stream's buffers go to the next one opened.
func (s *scanSource) Close() {
	if scr := s.scr; scr != nil {
		s.scr = nil
		scanPool.Put(scr)
	}
}

func (s *scanSource) Kind() AccessKind    { return DistanceAccess }
func (s *scanSource) Relation() *Relation { return s.rel }

// distKey is a squared distance's sort key: its bits with the sign
// cleared, which order non-negative values as the values do and put NaN
// after +Inf.
func distKey(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }
