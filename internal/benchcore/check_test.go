package benchcore

import (
	"strings"
	"testing"
)

func snap(results ...Result) Snapshot {
	return Snapshot{Benchmarks: results}
}

func TestCheckAllocs(t *testing.T) {
	committed := snap(
		Result{Name: "TopK", AllocsPerOp: 100},
		Result{Name: "SessionNext", AllocsPerOp: 4},
		Result{Name: "Retired", AllocsPerOp: 50},
	)

	t.Run("within tolerance passes", func(t *testing.T) {
		fresh := snap(
			Result{Name: "TopK", AllocsPerOp: 110}, // exactly +10%
			Result{Name: "SessionNext", AllocsPerOp: 5},
		)
		if err := CheckAllocs(fresh, committed); err != nil {
			t.Fatalf("unexpected failure: %v", err)
		}
	})

	t.Run("regression fails with every violation named", func(t *testing.T) {
		fresh := snap(
			Result{Name: "TopK", AllocsPerOp: 150},
			Result{Name: "SessionNext", AllocsPerOp: 40},
		)
		err := CheckAllocs(fresh, committed)
		if err == nil {
			t.Fatal("want regression error")
		}
		if !strings.Contains(err.Error(), "TopK") || !strings.Contains(err.Error(), "SessionNext") {
			t.Fatalf("error should name both violations: %v", err)
		}
	})

	t.Run("small-count floor allows one stray allocation", func(t *testing.T) {
		committed := snap(Result{Name: "ZeroAlloc", AllocsPerOp: 0})
		if err := CheckAllocs(snap(Result{Name: "ZeroAlloc", AllocsPerOp: 1}), committed); err != nil {
			t.Fatalf("+1 over a zero baseline must pass: %v", err)
		}
		if err := CheckAllocs(snap(Result{Name: "ZeroAlloc", AllocsPerOp: 2}), committed); err == nil {
			t.Fatal("+2 over a zero baseline must fail")
		}
	})

	t.Run("unknown and retired benchmarks are skipped", func(t *testing.T) {
		fresh := snap(Result{Name: "BrandNew", AllocsPerOp: 1 << 30})
		if err := CheckAllocs(fresh, committed); err != nil {
			t.Fatalf("new benchmark must not fail the gate: %v", err)
		}
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := snap(Result{Name: "TopK", Iterations: 3, NsPerOp: 1.5, BytesPerOp: 64, AllocsPerOp: 2})
	s.GoOS, s.GoArch, s.NumCPU, s.GoMaxProcs = "linux", "amd64", 4, 2
	var b strings.Builder
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0] != s.Benchmarks[0] || got.GoOS != "linux" || got.GoMaxProcs != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}
