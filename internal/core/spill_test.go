package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/relation"
)

// spillingOptions returns options that force the file tier on for every
// spilled combination.
func spillingOptions(dir string) Options {
	return Options{
		Algorithm:     CBRR,
		MaxBuffered:   1,
		SpillDir:      dir,
		SpillMemBytes: 1,
	}
}

// validSpillSegment runs the tier's own open-time check on a file by path.
func validSpillSegment(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	_, _, err = verifySpillSegment(f)
	return err == nil
}

// TestSpillSegmentRoundTrip exercises the tier directly: flushed batches
// come back through the head cursor in order, segments validate as
// complete, and consumed segments are removed from disk.
func TestSpillSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var stats Stats
	tier := newSpillTier(dir, 2, 1, &stats, nil)
	scores := []float64{0.9, 0.5, 0.5, 0.1}
	ranks := []int32{0, 1, 2, 3, 2, 4, 5, 6}
	if err := tier.flush(scores, ranks); err != nil {
		t.Fatal(err)
	}
	if want := int64(spillHeaderSize + 4*spillEntrySize(2) + 4); stats.SpilledBytes != want {
		t.Fatalf("%d bytes accounted, segment is %d", stats.SpilledBytes, want)
	}
	if got := tier.segs[0].count; got != 4 {
		t.Fatalf("segment holds %d entries, want 4", got)
	}
	if !validSpillSegment(tier.segs[0].path) {
		t.Fatal("freshly written segment does not validate")
	}
	for i := range scores {
		seg := tier.segs[0]
		ok, err := tier.ensureHead(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("segment dry at entry %d", i)
		}
		if seg.head != scores[i] {
			t.Fatalf("entry %d: score %v, want %v", i, seg.head, scores[i])
		}
		if seg.headRanks[0] != ranks[2*i] || seg.headRanks[1] != ranks[2*i+1] {
			t.Fatalf("entry %d: ranks %v", i, seg.headRanks)
		}
		seg.loaded = false
	}
	tier.compact()
	if len(tier.segs) != 0 {
		t.Fatal("consumed segment not released")
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatal("consumed segment file not removed")
	}
}

// TestSpillCrashSafety is the crash-safety property of the spill tier:
// a writer dying mid-segment (injected fault) leaves a torn file and a
// poisoned session — never a silently wrong stream — and on reopen the
// partial segment is detected, discarded, and the query re-derives
// byte-identical results from scratch.
func TestSpillCrashSafety(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	in := randomInstance(r, 2, 14)
	dir := t.TempDir()

	// Baseline: a spill session under the default watermark, all in RAM.
	base := Options{Algorithm: CBRR, MaxBuffered: 1, SpillDir: t.TempDir()}
	baseEmit, baseDrain, baseErr, baseStats := drainSources(t, in.sources(t, relation.ScoreAccess), in, base)
	if baseStats.SpilledCombinations == 0 {
		t.Skip("instance too small to spill")
	}

	// Crash the writer partway through its first segment.
	calls := 0
	crash := spillingOptions(dir)
	crash.spillFault = func() error {
		calls++
		if calls > 0 {
			return errors.New("injected media failure")
		}
		return nil
	}
	crash.Query = in.q
	crash.Agg = in.fn
	it, err := NewIterator(in.sources(t, relation.ScoreAccess), crash)
	if err != nil {
		t.Fatal(err)
	}
	sawFault := false
	for {
		_, err := it.Next()
		if err == nil {
			continue
		}
		if errors.Is(err, ErrIteratorDone) || errors.Is(err, ErrIteratorDNF) {
			t.Fatalf("session with failing spill terminated cleanly: %v", err)
		}
		if !strings.Contains(err.Error(), "injected media failure") {
			t.Fatalf("unexpected terminal: %v", err)
		}
		sawFault = true
		break
	}
	if !sawFault {
		t.Fatal("fault never surfaced")
	}
	if _, ok := it.DrainBest(); ok {
		t.Fatal("poisoned session still drains results")
	}

	// The crash left a torn segment behind; it must fail validation.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("expected exactly the torn segment, found %d files", len(files))
	}
	torn := filepath.Join(dir, files[0].Name())
	if validSpillSegment(torn) {
		t.Fatal("partial segment validates as complete")
	}

	// Reopen after the "crash": rename the leftover to a dead pid (the
	// in-process fault kept our own pid alive) and let the tier's first
	// flush sweep it, then verify the rerun is byte-identical to the baseline.
	dead := filepath.Join(dir, "prox-999999999-1-0.spill")
	if err := os.Rename(torn, dead); err != nil {
		t.Fatal(err)
	}
	clean := spillingOptions(dir)
	emit, drain, terminal, stats := drainSources(t, in.sources(t, relation.ScoreAccess), in, clean)
	if _, err := os.Stat(dead); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn segment survived the sweep: %v", err)
	}
	if !errors.Is(terminal, baseErr) {
		t.Fatalf("terminal %v vs %v", terminal, baseErr)
	}
	if err := combosIdentical(emit, baseEmit); err != nil {
		t.Fatalf("emissions after recovery: %v", err)
	}
	if err := combosIdentical(drain, baseDrain); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}
	if err := statsIdentical(stats, baseStats); err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
}

// TestSpillCorruptSegmentPoisonsSession: a segment is checked against its
// CRC trailer before the first entry of it is trusted. One byte flipped
// inside a live, not yet revived segment must surface from Next as an
// error — never as a result ranked by the damaged score — and the session
// stays poisoned.
func TestSpillCorruptSegmentPoisonsSession(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	in := randomInstance(r, 2, 14)
	opts := spillingOptions(t.TempDir())
	opts.Query = in.q
	opts.Agg = in.fn
	it, err := NewIterator(in.sources(t, relation.ScoreAccess), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Run until some segment is on disk with its reader still unopened.
	var victim *spillSegment
	for victim == nil {
		if _, err := it.Next(); err != nil {
			t.Skipf("session ended before a segment was left unread: %v", err)
		}
		for _, s := range it.e.buf.tier.segs {
			if s.r == nil {
				victim = s
				break
			}
		}
	}
	f, err := os.OpenFile(victim.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	at := int64(spillHeaderSize + 3) // inside the first entry's score
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}

	for i := 0; ; i++ {
		_, err := it.Next()
		if err == nil {
			if i > 1<<16 {
				t.Fatal("corrupted segment was never read back")
			}
			continue
		}
		if errors.Is(err, ErrIteratorDone) || errors.Is(err, ErrIteratorDNF) {
			t.Fatalf("session over a corrupted segment terminated cleanly: %v", err)
		}
		if !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), filepath.Base(victim.path)) {
			t.Fatalf("terminal does not name the checksum failure and the segment: %v", err)
		}
		break
	}
	if _, err := it.Next(); err == nil {
		t.Fatal("poisoned session emitted a result")
	}
	if _, ok := it.DrainBest(); ok {
		t.Fatal("poisoned session still drains results")
	}
}

// TestSpillSweepSparesLiveFiles: the sweep must never reclaim segments
// whose owning process is still alive (concurrent sessions may share a
// spill directory), nor files it does not recognize.
func TestSpillSweepSparesLiveFiles(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, fmt.Sprintf("prox-%d-7-0.spill", os.Getpid()))
	foreign := filepath.Join(dir, "not-a-segment.txt")
	deadFile := filepath.Join(dir, "prox-999999999-1-0.spill")
	for _, p := range []string{live, foreign, deadFile} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sweepSpillDir(dir)
	if _, err := os.Stat(live); err != nil {
		t.Fatal("sweep removed a live process's segment")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("sweep removed an unrelated file")
	}
	if _, err := os.Stat(deadFile); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("sweep kept a dead process's segment")
	}
}

// spillFiles lists the segment files under dir.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.spill"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestSpillClosedSessionsLeaveNothing is the lifetime contract: a session
// its consumer stops mid-enumeration, segments on disk, is over at Close —
// the directory is empty the moment each of a thousand Closes returns, not
// at some later collection, and no goroutine outlives them. A second Close
// is a no-op, Next then fails with the one closed-session error, DrainBest
// yields nothing, and the counters the service reads after a run stay
// readable.
func TestSpillClosedSessionsLeaveNothing(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	in := randomInstance(r, 2, 14)
	dir := t.TempDir()
	opts := spillingOptions(dir)
	opts.SpillMemBytes = 8 * spillEntrySize(2) // a segment per 8 spilled, not per 1: creating files is the test's cost
	opts.Query = in.q
	opts.Agg = in.fn
	baseline := runtime.NumGoroutine()
	for session := 0; session < 1000; session++ {
		it, err := NewIterator(in.sources(t, relation.ScoreAccess), opts)
		if err != nil {
			t.Fatal(err)
		}
		for len(it.e.buf.tier.segs) == 0 {
			if _, err := it.Next(); err != nil {
				t.Skipf("instance too small to leave segments on disk: %v", err)
			}
		}
		if session == 0 && len(spillFiles(t, dir)) == 0 {
			t.Fatal("a live segment is not a file under the spill directory")
		}
		emitted, stats, threshold := it.Emitted(), it.Stats(), it.Threshold()
		it.Close()
		if left := spillFiles(t, dir); len(left) != 0 {
			t.Fatalf("session %d: Close left %d segment files", session, len(left))
		}
		it.Close()
		for i := 0; i < 2; i++ {
			if _, err := it.Next(); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("session %d: Next after Close: %v", session, err)
			}
		}
		if _, ok := it.DrainBest(); ok {
			t.Fatalf("session %d: a closed session drains results", session)
		}
		if it.Emitted() != emitted || it.Threshold() != threshold || statsIdentical(it.Stats(), stats) != nil {
			t.Fatalf("session %d: Close moved the session's counters", session)
		}
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the last Close, %d before the first session", n, baseline)
	}
}

// TestSpillCloseAfterPoison: Close on a session an I/O failure already
// poisoned returns cleanly, takes what the session still held, and leaves
// exactly what the simulated crash left.
func TestSpillCloseAfterPoison(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	in := randomInstance(r, 2, 14)
	dir := t.TempDir()
	opts := spillingOptions(dir)
	opts.Query = in.q
	opts.Agg = in.fn
	flushes := 0
	opts.spillFault = func() error {
		if flushes++; flushes > 3 {
			return errors.New("injected media failure")
		}
		return nil
	}
	it, err := NewIterator(in.sources(t, relation.ScoreAccess), opts)
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = it.Next()
	}
	if !strings.Contains(err.Error(), "injected media failure") {
		t.Skipf("session ended before the fault: %v", err)
	}
	it.Close()
	it.Close()
	if left := spillFiles(t, dir); len(left) != 1 || validSpillSegment(left[0]) {
		t.Fatalf("after Close: %v, want only the torn segment of the simulated crash", left)
	}
	if _, err := it.Next(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Next after Close of a poisoned session: %v", err)
	}
}
