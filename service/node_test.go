package service

import (
	"context"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/shardrpc"
)

// mustListen binds a loopback port for a node's shard RPC role.
func mustListen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// requireRefused asserts nothing accepts on addr any more.
func requireRefused(t testing.TB, addr string) {
	t.Helper()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections", addr)
	}
}

// TestOpenDiscoveryFailureLeavesNothingBehind: a coordinator that cannot
// hello one of its peers does not come up — Open returns the discovery
// error naming the peer — and what it had started by then is gone: the
// RPC listener it was handed, the connection pooled to the peer that did
// answer, and every goroutine behind them.
func TestOpenDiscoveryFailureLeavesNothingBehind(t *testing.T) {
	rels := chaosRels(t, 40)
	live := openShardServer(t, rels, 2, Ownership{}, nil)
	gone := mustListen(t)
	dead := gone.Addr().String()
	gone.Close()
	cat := shardedCatalog(t, rels, 2)
	baseline := runtime.NumGoroutine()

	ln := mustListen(t)
	n, err := Open(context.Background(), cat, NodeConfig{
		Config:      nodeTestConfig,
		RPCListener: ln,
		Peers:       []string{live.RPCAddr, dead},
	})
	if err == nil {
		n.Close()
		t.Fatal("Open over an unreachable peer succeeded")
	}
	if !strings.Contains(err.Error(), "hello "+dead) {
		t.Fatalf("error %q does not name the discovery step and the peer %s", err, dead)
	}
	requireRefused(t, ln.Addr().String())
	// The accept loop is gone with the listener; the live peer's handler
	// for the hello connection ends only when the fleet's idle pool is
	// closed under it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across a failed Open", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOpenBothRoles pins what proxserve -shard-server -coordinator has
// always done: one node serves the shards of its local relations and
// coordinates over its peers' at once. Locally it holds C; the fleet
// brings A and B; a coordinator pointed at it sees C only (remote entries
// are never re-exported); and a join across all three answers like a
// single node holding all three. The fleet is attached by Open — the
// front end reports peers with no AttachFleet in sight, and a second
// coordinator over the same peers is just another Open — and the hedge
// policy reached the remote entries, so it was stamped before discovery.
func TestOpenBothRoles(t *testing.T) {
	ab := chaosRels(t, 60)
	c := []*proxrank.Relation{testRelation(t, "C", 302, 60, 2)}
	const shards = 3
	data := openShardServer(t, ab, shards, Ownership{}, nil)

	cat := shardedCatalog(t, c, shards)
	hedge := shardrpc.HedgePolicy{After: 7 * time.Millisecond}
	both := openNode(t, cat, NodeConfig{RPCListener: mustListen(t), Peers: []string{data.RPCAddr}, Hedge: hedge})
	for name, wantRemote := range map[string]bool{"A": true, "B": true, "C": false} {
		e, err := cat.Get(name)
		if err != nil || e.IsRemote() != wantRemote {
			t.Fatalf("relation %s: err=%v, want remote=%v", name, err, wantRemote)
		}
		if wantRemote && e.Remote().Hedge != hedge {
			t.Fatalf("relation %s carries hedge policy %+v, want %+v", name, e.Remote().Hedge, hedge)
		}
	}
	if len(both.Shadowed) != 0 {
		t.Fatalf("shadowed %v, want none", both.Shadowed)
	}

	outerCat := NewCatalog()
	openNode(t, outerCat, NodeConfig{Peers: []string{both.RPCAddr}})
	if got := outerCat.Names(); !reflect.DeepEqual(got, []string{"C"}) {
		t.Fatalf("a coordinator over the two-role node sees %v, want [C]", got)
	}

	twin := localTwin(t, append(ab, c...), shards)
	req := &api.Request{Query: []float64{0.2, -0.4}, Relations: []string{"A", "B", "C"}, K: 4}
	want, err := twin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := both.Executor.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := CanonicalResponse(want), CanonicalResponse(got); w != g {
		t.Fatalf("two-role node differs from a single node\nsingle: %s\nnode:   %s", w, g)
	}

	if peers := both.Fleet.Peers(); len(peers) != 1 || peers[0].Addr != data.RPCAddr || peers[0].Rows.Load() == 0 {
		t.Fatalf("fleet peers %+v, want the one data server with the rows it sent", peers)
	}
}

// TestNodeCloseTwice: Close stops the RPC server and drops the fleet's
// pools, and a second Close — a test's cleanup after the test already
// killed the node, a daemon's deferred one after its signal path — is a
// no-op.
func TestNodeCloseTwice(t *testing.T) {
	rels := chaosRels(t, 40)
	data := openShardServer(t, rels, 2, Ownership{}, nil)
	n := openNode(t, NewCatalog(), NodeConfig{RPCListener: mustListen(t), Peers: []string{data.RPCAddr}})
	n.Close()
	requireRefused(t, n.RPCAddr)
	if _, err := n.Fleet.Peers()[0].Call(context.Background(), &shardrpc.Request{Verb: shardrpc.VerbPing}); err == nil {
		t.Fatal("the fleet still dials after Close")
	}
	n.Close()
}
