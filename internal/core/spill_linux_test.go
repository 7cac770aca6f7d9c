package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/relation"
)

// TestSpillFailedFlushLeavesNoFile: a write the system refuses must not
// strand its torn file. The owner is alive, so no sweep would ever take
// it, and it was never added to the tier, so nothing else would either —
// on ENOSPC every failed flush used to leave one until restart. Here the
// first segment's descriptor is swapped underneath the writer for one
// that refuses writes; the session poisons, and after Close the directory
// holds nothing. (The injected spillFault stays the crash simulation and
// keeps leaving its file: TestSpillCrashSafety.)
func TestSpillFailedFlushLeavesNoFile(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	in := randomInstance(r, 2, 14)
	dir := t.TempDir()
	readOnly, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()

	opts := spillingOptions(dir)
	opts.Query = in.q
	opts.Agg = in.fn
	swapped := false
	opts.spillFault = func() error { // never fails: it only breaks the file
		if swapped {
			return nil
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		for _, e := range fds {
			target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
			if fd, _ := strconv.Atoi(e.Name()); strings.HasPrefix(target, dir) && strings.HasSuffix(target, ".spill") {
				if err := syscall.Dup3(int(readOnly.Fd()), fd, 0); err != nil {
					t.Fatal(err)
				}
				swapped = true
			}
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
	if !swapped {
		t.Skipf("session never spilled: %v", err)
	}
	if errors.Is(err, ErrIteratorDone) || errors.Is(err, ErrIteratorDNF) || !strings.Contains(err.Error(), "spill segment") {
		t.Fatalf("a refused write ended the session with %v", err)
	}
	it.Close()
	if left := spillFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed flush stranded %v", left)
	}
}
