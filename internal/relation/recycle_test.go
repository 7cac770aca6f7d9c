package relation_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	proxrank "repro"
)

// recycleFixture is two 1500-tuple dim-4 relations on a coarse lattice
// (distance ties within and across shards), plain and as 3 grid shards.
func recycleFixture(t *testing.T) (plain []*proxrank.Relation, sharded []proxrank.Input) {
	t.Helper()
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 2; i++ {
		tuples := make([]proxrank.Tuple, 1500)
		for j := range tuples {
			v := make(proxrank.Vector, 4)
			for c := range v {
				v[c] = float64(r.Intn(9)) / 4
			}
			tuples[j] = proxrank.Tuple{ID: fmt.Sprintf("r%d-%04d", i, j), Score: 0.1 + 0.1*float64(r.Intn(9)), Vec: v}
		}
		rel, err := proxrank.NewRelation(fmt.Sprintf("R%d", i), 1, tuples)
		if err != nil {
			t.Fatal(err)
		}
		s, err := proxrank.NewShardedRelation(rel, 3)
		if err != nil {
			t.Fatal(err)
		}
		plain, sharded = append(plain, rel), append(sharded, s)
	}
	return plain, sharded
}

// TestClosedQueriesRecycleTraversalQueues is TestReleasedRTreeStreamsRecycle
// one level up: what a single node does all day. Four goroutines run batch
// queries over shared sharded inputs; each Run ends in Query.Close, which
// hands the six traversal queues of its merged R-tree streams to whoever
// opens next, so nearly every traversal runs on a queue another query left
// behind — and every answer still equals the plain relations' scan, score bits
// and depths included. Under -race this is the check that a queue handed
// back through Close has one owner. An open session does the same at its
// own Close and is over afterwards; a session nobody closes hands nothing
// back, which is the difference the byte count at the end sees.
func TestClosedQueriesRecycleTraversalQueues(t *testing.T) {
	plain, sharded := recycleFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 40; round++ {
				q := plain[r.Intn(2)].At(r.Intn(1500)).Vec
				opts := proxrank.Options{K: 1 + r.Intn(20)}
				got, err := proxrank.TopKInputs(q, sharded, opts)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := proxrank.TopK(q, plain, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Stats.SumDepths != want.Stats.SumDepths || len(got.Combinations) != len(want.Combinations) {
					t.Errorf("goroutine %d round %d: %d results at depth %d on recycled queues, %d at %d sorted",
						g, round, len(got.Combinations), got.Stats.SumDepths, len(want.Combinations), want.Stats.SumDepths)
					return
				}
				for i, c := range got.Combinations {
					w := want.Combinations[i]
					if math.Float64bits(c.Score) != math.Float64bits(w.Score) || c.Tuples[0].ID != w.Tuples[0].ID || c.Tuples[1].ID != w.Tuples[1].ID {
						t.Errorf("goroutine %d round %d rank %d: %v on recycled queues, %v sorted", g, round, i, c, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	q := plain[0].At(7).Vec
	session := func(end func(*proxrank.Query)) {
		sess, err := proxrank.NewQueryInputs(q, sharded, proxrank.Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Next(5); err != nil {
			t.Fatal(err)
		}
		end(sess)
	}
	session(func(sess *proxrank.Query) {
		sess.Close()
		sess.Close()
		if _, err := sess.Next(1); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Next on a closed session: %v", err)
		}
		for _, err := range sess.Results(context.Background()) {
			if !errors.Is(err, os.ErrClosed) {
				t.Fatalf("Results on a closed session: %v", err)
			}
		}
		if sess.Emitted() != 5 || sess.Stats().SumDepths == 0 {
			t.Fatalf("closed session forgot its counters: emitted %d, depths %d", sess.Emitted(), sess.Stats().SumDepths)
		}
	})
	allocated := func(end func(*proxrank.Query)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 200; i++ {
			session(end)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	dropped := allocated(func(*proxrank.Query) {})
	closed := allocated((*proxrank.Query).Close)
	if closed >= dropped {
		t.Fatalf("200 closed sessions allocated %d bytes, 200 dropped ones %d: Close hands no queue back", closed, dropped)
	}
	t.Logf("200 sessions: %d bytes closed, %d dropped", closed, dropped)
}
