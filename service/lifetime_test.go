package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
)

// spillWatch is a source that notes, on every pull, whether the spill
// directory exists, then runs then — the point at which each case of
// TestSessionEndLeavesNoSegments ends its run.
type spillWatch struct {
	proxrank.Source
	dir     string
	pulls   *atomic.Int64
	touched *atomic.Bool
	then    func()
}

func (s spillWatch) Next() (proxrank.Tuple, error) {
	s.pulls.Add(1)
	if _, err := os.Stat(s.dir); !errors.Is(err, os.ErrNotExist) {
		s.touched.Store(true)
	}
	if s.then != nil {
		s.then()
	}
	return s.Source.Next()
}

// TestSessionEndLeavesNoSegments: every way a run ends goes through the
// one end of its session (lead → q.Close), and no way of running one
// touches the spill directory. Every query the service runs is a bounded
// consumer, so even a "spill" request against a server with a spill
// directory and a 64-byte watermark creates nothing there: not while it
// runs, not when its slot comes back. For a batch caller that is the
// moment Execute returns; a stream caller that walked away can return
// before its run notices, so that case waits for the slot.
// Segment cleanup at Close is core's TestSpillClosedSessionsLeaveNothing.
func TestSessionEndLeavesNoSegments(t *testing.T) {
	cat := NewCatalog()
	for i, name := range []string{"A", "B"} {
		if err := cat.Register(name, testRelation(t, name, int64(51+i), 500, 2)); err != nil {
			t.Fatal(err)
		}
	}
	request := func(k int) *api.Request {
		return &api.Request{Query: []float64{0, 0}, Relations: []string{"A", "B"}, K: k, BufferPolicy: api.BufferSpill}
	}
	discard := func(api.ResultEvent) error { return nil }

	for _, tc := range []struct {
		name string
		req  *api.Request
		// then runs inside the engine on every pull; call runs the query
		// and returns its error.
		then func(cancel context.CancelFunc)
		call func(ctx context.Context, x *Executor, req *api.Request, idle func()) error
		want api.ErrorCode
	}{
		{name: "complete", req: request(3)},
		{name: "DNF cap", req: func() *api.Request { r := request(3); r.MaxSumDepths = 60; return r }()},
		{
			name: "deadline", req: func() *api.Request { r := request(3); r.TimeoutMillis = 20; return r }(),
			then: func(context.CancelFunc) { time.Sleep(40 * time.Millisecond) },
			want: api.CodeTimeout,
		},
		{
			name: "cancelled private stream", req: request(3),
			then: func(cancel context.CancelFunc) { cancel() },
			call: func(ctx context.Context, x *Executor, req *api.Request, idle func()) error {
				err := x.ExecuteStream(ctx, req, discard)
				idle()
				return err
			},
			want: api.CodeCanceled,
		},
		{
			name: "engine panic", req: request(3),
			then: func(context.CancelFunc) { panic("source exploded") },
			want: api.CodeInternal,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spill")
			x := NewExecutor(cat, Config{Workers: 2, CacheSize: -1, SpillDir: dir, SpillMemBytes: 64})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var pulls atomic.Int64
			var touched atomic.Bool
			var then func()
			if tc.then != nil {
				then = func() { tc.then(cancel) }
			}
			x.wrapSource = func(s proxrank.Source) proxrank.Source {
				return spillWatch{Source: s, dir: dir, pulls: &pulls, touched: &touched, then: then}
			}
			untouched := func(when string) {
				t.Helper()
				if _, err := os.Stat(dir); touched.Load() || !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("the spill directory was created (%v) %s", err, when)
				}
			}
			idle := func() {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); x.Stats().InFlight != 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the run never handed its slot back")
					}
				}
				untouched("when the slot came back")
			}
			var err error
			if tc.call != nil {
				err = tc.call(ctx, x, tc.req, idle)
			} else {
				_, err = x.Execute(ctx, tc.req)
				if n := x.Stats().InFlight; n != 0 {
					t.Fatalf("Execute returned with %d runs in flight", n)
				}
			}
			untouched("when the call returned")
			if codeOf(err) != tc.want {
				t.Fatalf("error %v, want code %q", err, tc.want)
			}
			if pulls.Load() == 0 {
				t.Fatal("the run never pulled: the case checks nothing")
			}
		})
	}
}
