package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/relfile"
)

// seqTracer records the full observable schedule of a run — every pull
// (relation and depth), every threshold recomputation (at its cumulative
// depth, with the threshold's exact bits), and every buffer pressure
// event — so two runs can be compared access for access, not just by
// their aggregate counters.
type seqTracer struct {
	pulls  [][2]int
	bounds []struct {
		sum  int
		bits uint64
	}
	bufs []struct {
		action string
		count  int
	}
}

func (s *seqTracer) TracePull(rel, depth int, _ time.Duration) {
	s.pulls = append(s.pulls, [2]int{rel, depth})
}

func (s *seqTracer) TraceBound(sum int, threshold float64) {
	s.bounds = append(s.bounds, struct {
		sum  int
		bits uint64
	}{sum, math.Float64bits(threshold)})
}

func (s *seqTracer) TraceBuffer(action string, count int) {
	s.bufs = append(s.bufs, struct {
		action string
		count  int
	}{action, count})
}

func (s *seqTracer) sameAs(o *seqTracer) error {
	if len(s.pulls) != len(o.pulls) {
		return fmt.Errorf("pull count %d vs %d", len(s.pulls), len(o.pulls))
	}
	for i := range s.pulls {
		if s.pulls[i] != o.pulls[i] {
			return fmt.Errorf("pull %d: %v vs %v", i, s.pulls[i], o.pulls[i])
		}
	}
	if len(s.bounds) != len(o.bounds) {
		return fmt.Errorf("bound count %d vs %d", len(s.bounds), len(o.bounds))
	}
	for i := range s.bounds {
		if s.bounds[i] != o.bounds[i] {
			return fmt.Errorf("bound %d: %+v vs %+v", i, s.bounds[i], o.bounds[i])
		}
	}
	if len(s.bufs) != len(o.bufs) {
		return fmt.Errorf("buffer event count %d vs %d", len(s.bufs), len(o.bufs))
	}
	for i := range s.bufs {
		if s.bufs[i] != o.bufs[i] {
			return fmt.Errorf("buffer event %d: %+v vs %+v", i, s.bufs[i], o.bufs[i])
		}
	}
	return nil
}

// relfileSharded round-trips every relation of the instance through the
// relfile format: partition in memory, write, mmap back, load. The
// returned relations hold no tuples on the Go heap.
func relfileSharded(t *testing.T, in instance, shards int, strategy relation.PartitionStrategy) []*relation.Sharded {
	t.Helper()
	dir := t.TempDir()
	out := make([]*relation.Sharded, len(in.rels))
	for i, rel := range in.rels {
		s, err := relation.Partition(rel, shards, strategy)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("r%d.prox", i))
		if err := relfile.Write(path, s); err != nil {
			t.Fatal(err)
		}
		f, err := relfile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		loaded, err := f.Load(rel.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = loaded
	}
	return out
}

// shardedSources opens the serving path's source plan over sharded
// relations: one stream per shard (R-tree backed for distance access,
// exactly as the executor opens them) merged into one canonical stream.
func shardedSources(t *testing.T, shs []*relation.Sharded, in instance, kind relation.AccessKind) []relation.Source {
	t.Helper()
	out := make([]relation.Source, len(shs))
	for i, sh := range shs {
		perShard := make([]relation.Source, sh.NumShards())
		for j := 0; j < sh.NumShards(); j++ {
			src, err := sh.ShardSource(j, kind, in.q, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			perShard[j] = src
		}
		merged, err := sh.Merge(perShard)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = merged
	}
	return out
}

// drainSources is drainIterator over an explicit source plan.
func drainSources(t *testing.T, sources []relation.Source, in instance, opts Options) (emitted, drained []Combination, terminal error, stats Stats) {
	t.Helper()
	opts.Query = in.q
	opts.Agg = in.fn
	it, err := NewIterator(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := it.Next()
		if err != nil {
			if !errors.Is(err, ErrIteratorDone) && !errors.Is(err, ErrIteratorDNF) {
				t.Fatalf("iterator failed: %v", err)
			}
			terminal = err
			break
		}
		emitted = append(emitted, c)
	}
	for {
		c, ok := it.DrainBest()
		if !ok {
			break
		}
		drained = append(drained, c)
	}
	return emitted, drained, terminal, it.Stats()
}

type diskRun struct {
	emitted, drained []Combination
	terminal         error
	stats            Stats
	trace            *seqTracer
}

func runDisk(t *testing.T, sources []relation.Source, in instance, opts Options) diskRun {
	t.Helper()
	tr := &seqTracer{}
	opts.Tracer = tr
	e, d, term, st := drainSources(t, sources, in, opts)
	return diskRun{emitted: e, drained: d, terminal: term, stats: st, trace: tr}
}

func (a diskRun) mustMatch(t *testing.T, label string, b diskRun) {
	t.Helper()
	if !errors.Is(a.terminal, b.terminal) && !errors.Is(b.terminal, a.terminal) {
		t.Fatalf("%s: terminal %v vs %v", label, a.terminal, b.terminal)
	}
	if err := combosIdentical(a.emitted, b.emitted); err != nil {
		t.Fatalf("%s: emissions: %v", label, err)
	}
	if err := combosIdentical(a.drained, b.drained); err != nil {
		t.Fatalf("%s: drain: %v", label, err)
	}
	if err := statsIdentical(a.stats, b.stats); err != nil {
		t.Fatalf("%s: stats: %v", label, err)
	}
	// Beyond statsIdentical's schedule counters, the optimization
	// counters must also agree: pruning and spilling decide identically
	// whatever the storage backend.
	if a.stats.CombinationsPruned != b.stats.CombinationsPruned {
		t.Fatalf("%s: pruned %d vs %d", label, a.stats.CombinationsPruned, b.stats.CombinationsPruned)
	}
	if a.stats.SpilledCombinations != b.stats.SpilledCombinations {
		t.Fatalf("%s: spilled %d vs %d", label, a.stats.SpilledCombinations, b.stats.SpilledCombinations)
	}
	if a.stats.PeakBuffered != b.stats.PeakBuffered {
		t.Fatalf("%s: peak %d vs %d", label, a.stats.PeakBuffered, b.stats.PeakBuffered)
	}
	if err := a.trace.sameAs(b.trace); err != nil {
		t.Fatalf("%s: schedule: %v", label, err)
	}
}

// TestDiskIdentity is the storage byte-identity property: for all four
// algorithms and both access kinds, a session served from mmap-backed
// relfile shards — its spill slab in memory or flushed to segment files
// at every entry — emits exactly what the all-RAM session (relations in
// memory, slab under the default watermark) emits: Float64bits-equal scores, identical
// rank vectors and tuples, identical stats including the optimization
// counters, and the identical pull/bound/buffer schedule.
func TestDiskIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(63018))
	spilledSomewhere := false
	for ci, c := range identityCases(r, 6) {
		opts := c.opts
		opts.MaxBuffered = 1 + r.Intn(5)
		opts.SpillDir = t.TempDir()
		shards := 1 + r.Intn(3)
		strategy := relation.HashPartition
		if r.Intn(2) == 0 {
			strategy = relation.GridPartition
		}

		ram := runDisk(t, c.in.sources(t, c.kind), c.in, opts)
		disk := relfileSharded(t, c.in, shards, strategy)

		fromDisk := runDisk(t, shardedSources(t, disk, c.in, c.kind), c.in, opts)
		fromDisk.mustMatch(t, fmt.Sprintf("case %d (%v,%v,%d shards) relfile", ci, opts.Algorithm, c.kind, shards), ram)

		spillOpts := opts
		spillOpts.SpillDir = t.TempDir()
		spillOpts.SpillMemBytes = 1 // watermark 1: every spilled entry hits disk
		withSpill := runDisk(t, shardedSources(t, disk, c.in, c.kind), c.in, spillOpts)
		withSpill.mustMatch(t, fmt.Sprintf("case %d (%v,%v) relfile+spill", ci, opts.Algorithm, c.kind), ram)
		if withSpill.stats.SpilledCombinations > 0 {
			if withSpill.stats.SpilledBytes == 0 {
				t.Fatalf("case %d: spilled %d combinations but wrote no segment bytes",
					ci, withSpill.stats.SpilledCombinations)
			}
			spilledSomewhere = true
		}
		if ram.stats.SpilledBytes != 0 {
			t.Fatalf("case %d: RAM run reported spill segment bytes", ci)
		}
	}
	if !spilledSomewhere {
		t.Fatal("property never exercised the file spill tier; enlarge the instances")
	}
}

// TestDiskSpillDrainsClean: a session that spilled to disk removes its
// segment files as they are consumed — a fully drained session leaves
// the spill directory empty.
func TestDiskSpillDrainsClean(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	in := randomInstance(r, 2, 14)
	dir := t.TempDir()
	opts := Options{
		Algorithm:     CBRR,
		MaxBuffered:   2,
		SpillDir:      dir,
		SpillMemBytes: 1,
	}
	_, _, _, stats := drainSources(t, in.sources(t, relation.ScoreAccess), in, opts)
	if stats.SpilledBytes == 0 {
		t.Skip("instance too small to spill")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("drained session left %d files in the spill dir", len(left))
	}
}
