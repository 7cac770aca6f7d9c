package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/relfile"
)

// writeRelFile partitions rel and writes it to a temp .prox file.
func writeRelFile(t testing.TB, rel *proxrank.Relation, shards int) string {
	t.Helper()
	s, err := proxrank.NewShardedRelation(rel, shards)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), rel.Name+proxrank.RelFileExtension)
	if err := proxrank.SaveRelFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// resultsKey renders just the answer part of a response — scores survive
// as shortest-round-trip floats, so bit differences show.
func resultsKey(t *testing.T, resp *api.Response) string {
	t.Helper()
	buf, err := json.Marshal(resp.Results)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestCatalogLoadRelFile: a relation admitted from a relfile mapping
// answers queries byte-identically to the same relation registered from
// RAM, reports itself file-backed, and bumps the open counter.
func TestCatalogLoadRelFile(t *testing.T) {
	relA := testRelation(t, "A", 21, 60, 2)
	relB := testRelation(t, "B", 22, 50, 2)
	pathA := writeRelFile(t, relA, 2)

	ramCat := NewCatalog()
	if err := ramCat.RegisterSharded("A", relA, 2); err != nil {
		t.Fatal(err)
	}
	if err := ramCat.Register("B", relB); err != nil {
		t.Fatal(err)
	}
	fileCat := NewCatalog()
	if err := fileCat.LoadRelFile("A", pathA); err != nil {
		t.Fatal(err)
	}
	if err := fileCat.Register("B", relB); err != nil {
		t.Fatal(err)
	}
	if got := fileCat.RelFileOpens(); got != 1 {
		t.Fatalf("RelFileOpens = %d, want 1", got)
	}
	info, err := fileCat.Info("A")
	if err != nil {
		t.Fatal(err)
	}
	if !info.FileBacked || info.Tuples != relA.Len() || info.Shards != 2 {
		t.Fatalf("relfile entry info = %+v", info)
	}
	if info, err := fileCat.Info("B"); err != nil || info.FileBacked {
		t.Fatalf("RAM entry claims file backing: %+v (%v)", info, err)
	}

	ram := NewExecutor(ramCat, Config{Workers: 2, CacheSize: -1})
	file := NewExecutor(fileCat, Config{Workers: 2, CacheSize: -1})
	for _, req := range []*api.Request{
		{Query: []float64{0.1, -0.2}, Relations: []string{"A", "B"}, K: 4},
		{Query: []float64{-0.6, 0.4}, Relations: []string{"A", "B"}, K: 7, Access: "score"},
	} {
		want, err := ram.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := file.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := resultsKey(t, want), resultsKey(t, got); w != g {
			t.Fatalf("relfile-backed answer diverged\nram:  %s\nfile: %s", w, g)
		}
	}

	// Error paths: a missing file is a bad request, a taken name a conflict.
	if err := fileCat.LoadRelFile("C", filepath.Join(t.TempDir(), "nope.prox")); codeOf(err) != api.CodeBadRequest {
		t.Fatalf("missing file: %v", err)
	}
	if err := fileCat.LoadRelFile("A", pathA); codeOf(err) != api.CodeConflict {
		t.Fatalf("duplicate load: %v", err)
	}
}

// TestExecutorIgnoresBufferPolicy: every query the service runs is a
// bounded consumer, so the wire's bufferPolicy is validated and ignored
// and a configured spill directory is never used. "", "prune" and "spill"
// give byte-identical answers with a zero spill cost under one cache key,
// and nothing is ever created under SpillDir, even at a 64-byte watermark.
func TestExecutorIgnoresBufferPolicy(t *testing.T) {
	cat := NewCatalog()
	for i, name := range []string{"A", "B"} {
		if err := cat.Register(name, testRelation(t, name, int64(51+i), 500, 2)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "spill")
	x := NewExecutor(cat, Config{Workers: 2, CacheSize: -1, SpillDir: dir, SpillMemBytes: 64})

	// A center query over everything forms far more combinations than
	// K=3 keeps buffered: a spill tier, were there one, would overflow.
	mk := func(policy string) *api.Request {
		return &api.Request{Query: []float64{0, 0}, Relations: []string{"A", "B"}, K: 3, BufferPolicy: policy}
	}
	var want, key string
	for _, policy := range []string{"", api.BufferPrune, api.BufferSpill} {
		resp, err := x.Execute(context.Background(), mk(policy))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cost.SpilledCombinations != 0 || resp.Cost.SpilledBytes != 0 {
			t.Fatalf("bufferPolicy %q: spill cost %+v", policy, resp.Cost)
		}
		got := CanonicalResponse(resp)
		req := mk(policy)
		if err := req.Normalize(api.Limits{}); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want, key = got, req.Canonical()
			continue
		}
		if got != want {
			t.Fatalf("bufferPolicy %q changed the answer\nwant: %s\ngot:  %s", policy, want, got)
		}
		if req.Canonical() != key {
			t.Fatalf("bufferPolicy %q leaked into the canonical encoding", policy)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the service touched its spill directory: %v", err)
	}
}

// TestCatalogAutoShardAdmission: shards == 0 lets admission pick the
// count from the relation's size, and Replace re-derives it — a relation
// that grew past the per-shard target is re-sharded on re-registration.
func TestCatalogAutoShardAdmission(t *testing.T) {
	cat := NewCatalog()
	small := testRelation(t, "r", 31, 50, 2)
	if err := cat.RegisterSharded("r", small, 0); err != nil {
		t.Fatal(err)
	}
	e1, err := cat.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Shards() != 1 {
		t.Fatalf("small relation auto-sharded to %d, want 1", e1.Shards())
	}

	grown := testRelation(t, "r", 32, 9000, 2)
	if err := cat.Replace("r", grown, 0); err != nil {
		t.Fatal(err)
	}
	e2, err := cat.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if want := proxrank.AutoShardCount(9000); e2.Shards() != want || want < 2 {
		t.Fatalf("grown relation re-sharded to %d, want %d (>1)", e2.Shards(), want)
	}
	if e2.Generation() <= e1.Generation() {
		t.Fatalf("Replace did not advance the generation: %d then %d", e1.Generation(), e2.Generation())
	}
	// The old entry still answers: in-flight queries hold it by pointer.
	if e1.Sharded().Relation().Len() != 50 {
		t.Fatal("replaced entry lost its relation")
	}
}

// TestCatalogRelFileConcurrentEvict hammers evict + re-load of an
// mmap-backed relation while queries run against it from several
// goroutines (run under -race in CI). Queries that resolved the old
// generation finish on it — they hold the entry, and the entry holds its
// mapping — so answers are identical across generations of the same file
// and nothing tears. TestCatalogRelFileChurnUnmaps adds the cache and
// the collector.
func TestCatalogRelFileConcurrentEvict(t *testing.T) {
	relA := testRelation(t, "A", 41, 400, 2)
	relB := testRelation(t, "B", 42, 300, 2)
	pathA := writeRelFile(t, relA, 3)

	cat := NewCatalog()
	if err := cat.LoadRelFile("A", pathA); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("B", relB); err != nil {
		t.Fatal(err)
	}
	x := NewExecutor(cat, Config{Workers: 4, CacheSize: -1})
	req := &api.Request{Query: []float64{0.2, 0.1}, Relations: []string{"A", "B"}, K: 5}
	golden, err := x.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := resultsKey(t, golden)

	var stop atomic.Bool
	var succeeded atomic.Int64
	errc := make(chan error, 16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := x.Execute(context.Background(), req)
				if err != nil {
					// The instant between Evict and re-load legally 404s;
					// anything else is a real failure.
					if codeOf(err) != api.CodeNotFound {
						select {
						case errc <- err:
						default:
						}
					}
					continue
				}
				if got := resultsKey(t, resp); got != want {
					select {
					case errc <- errors.New("answer diverged across generations:\n" + got + "\nwant:\n" + want):
					default:
					}
				}
				succeeded.Add(1)
			}
		}()
	}
	// Churn until the queriers have demonstrably completed work across
	// several generations (bounded so a hang still fails fast).
	churns := 0
	for deadline := 0; (succeeded.Load() < 50 || churns < 25) && deadline < 10_000; deadline++ {
		cat.Evict("A")
		if err := cat.LoadRelFile("A", pathA); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		churns++
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if succeeded.Load() == 0 {
		t.Fatal("no query completed during the churn")
	}
	if opens := cat.RelFileOpens(); opens != int64(churns)+1 {
		t.Fatalf("RelFileOpens = %d, want %d", opens, churns+1)
	}
}

// settleMapped collects garbage until relfile.MappedBytes reads want, and
// fails if it never does: finalizers run on their own goroutine after the
// cycle that found their File unreachable.
func settleMapped(t *testing.T, want int64) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	for i := 0; i < 200 && relfile.MappedBytes() != want; i++ {
		time.Sleep(time.Millisecond)
		runtime.GC()
	}
	if got := relfile.MappedBytes(); got != want {
		t.Fatalf("relfile mappings hold %d bytes after collecting, want %d", got, want)
	}
}

// TestCatalogRelFileChurnUnmaps is TestCatalogRelFileConcurrentEvict with
// the result cache on and a collection after every re-load, over dim-8
// relations whose shards scan: an evicted generation is unmapped once its
// last query settles, and the answers computed on it, cached ones among
// them, are read again after their mapping is gone and still equal the
// heap twin's bit for bit. After the churn exactly one generation, the
// registered one, stays mapped, and evicting it unmaps it though the
// cache still holds answers computed on it.
func TestCatalogRelFileChurnUnmaps(t *testing.T) {
	settleMapped(t, 0)
	relA := testRelation(t, "A", 43, 400, 8)
	relB := testRelation(t, "B", 44, 300, 8)
	pathA := writeRelFile(t, relA, 3)
	st, err := os.Stat(pathA)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.2, 0.1, -0.3, 0, 0.5, -0.1, 0.05, 0.4}
	reqs := []*api.Request{
		{Query: q, Relations: []string{"A", "B"}, K: 5},
		{Query: q, Relations: []string{"A", "B"}, K: 5, Access: "score"},
	}
	twin := NewCatalog()
	if err := twin.Register("A", relA); err != nil {
		t.Fatal(err)
	}
	if err := twin.Register("B", relB); err != nil {
		t.Fatal(err)
	}
	heap := NewExecutor(twin, Config{Workers: 1, CacheSize: -1})
	want := make([]string, len(reqs))
	for i, req := range reqs {
		resp, err := heap.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultsKey(t, resp)
	}

	cat := NewCatalog()
	if err := cat.LoadRelFile("A", pathA); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("B", relB); err != nil {
		t.Fatal(err)
	}
	x := NewExecutor(cat, Config{Workers: 4, CacheSize: 16})

	// kept holds each querier's cached answers, read again once their
	// generations are unmapped.
	type keptAnswer struct {
		resp *api.Response
		req  int
	}
	kept := make([][]keptAnswer, 4)
	var stop atomic.Bool
	var succeeded, cachedKept atomic.Int64
	errc := make(chan error, 16)
	var wg sync.WaitGroup
	for g := range kept {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				i := n % len(reqs)
				resp, err := x.Execute(context.Background(), reqs[i])
				if err != nil {
					if codeOf(err) != api.CodeNotFound {
						select {
						case errc <- err:
						default:
						}
					}
					continue
				}
				if got := resultsKey(t, resp); got != want[i] {
					select {
					case errc <- errors.New("answer diverged from the heap twin:\n" + got + "\nwant:\n" + want[i]):
					default:
					}
				}
				succeeded.Add(1)
				if resp.Cached && len(kept[g]) < 64 {
					kept[g] = append(kept[g], keptAnswer{resp, i})
					cachedKept.Add(1)
				}
			}
		}(g)
	}
	churns := 0
	for deadline := 0; (succeeded.Load() < 50 || cachedKept.Load() < 8 || churns < 25) && deadline < 10_000; deadline++ {
		cat.Evict("A")
		if err := cat.LoadRelFile("A", pathA); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		runtime.GC()
		churns++
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if cachedKept.Load() == 0 {
		t.Fatal("no cached answer was served during the churn")
	}
	settleMapped(t, st.Size())
	cat.Evict("A")
	settleMapped(t, 0)
	if x.cache.len() == 0 {
		t.Fatal("the cache holds no answer over the evicted relation")
	}
	for _, answers := range kept {
		for _, a := range answers {
			if got := resultsKey(t, a.resp); got != want[a.req] {
				t.Fatalf("cached answer changed after its mapping was unmapped:\n%s\nwant:\n%s", got, want[a.req])
			}
		}
	}
	if opens := cat.RelFileOpens(); opens != int64(churns)+1 {
		t.Fatalf("RelFileOpens = %d, want %d", opens, churns+1)
	}
}
