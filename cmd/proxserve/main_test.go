package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/shardrpc"
	"repro/service"
)

// TestFlagTable pins the command line: what each combination parses to,
// and the message each refused one exits 2 with. The role rows used to
// start a server that ignored the flag.
func TestFlagTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    string
		chaos   bool   // PROXSERVE_CHAOS=1
		wantErr string // refused: run exits 2 and says this
		check   func(t *testing.T, o *options)
	}{
		{name: "own without role", args: "-city SF -own 0/2", wantErr: "-own needs -shard-server"},
		{name: "rpc-addr without role", args: "-city SF -rpc-addr :9001", wantErr: "-rpc-addr needs -shard-server"},
		{name: "fault-spec without role", args: "-city SF -fault-spec verb=pull;action=reset", chaos: true, wantErr: "-fault-spec needs -shard-server"},
		{name: "peers without role", args: "-city SF -peers a:1", wantErr: "-peers needs -coordinator"},
		{name: "hedge-after without role", args: "-city SF -hedge-after 10ms", wantErr: "-hedge-after needs -coordinator"},
		{name: "breaker-cooldown without role", args: "-city SF -breaker-cooldown 2s", wantErr: "-breaker-cooldown needs -coordinator"},
		{name: "shard role does not license coordinator flags", args: "-city SF -shard-server -peers a:1", wantErr: "-peers needs -coordinator"},
		{name: "fault-spec without the env gate", args: "-city SF -shard-server -fault-spec verb=pull;action=reset", wantErr: "set PROXSERVE_CHAOS=1 to confirm"},
		{name: "fault-spec malformed", args: "-city SF -shard-server -fault-spec verb", chaos: true, wantErr: "invalid value"},
		{name: "coordinator without peers", args: "-coordinator", wantErr: "-coordinator needs -peers"},
		{name: "nothing to serve", args: "", wantErr: "no relations to serve"},
		{name: "zero shards", args: "-city SF -shards 0", wantErr: "-shards 0 must be at least 1"},
		{name: "rel without path", args: "-rel hotels", wantErr: "want name=path.csv[:shards]"},
		{name: "ownership out of range", args: "-city SF -shard-server -own 2/2", wantErr: "want 0 <= i < n"},
		{name: "unknown flag", args: "-city SF -rtree", wantErr: "flag provided but not defined"},

		{name: "defaults", args: "-city SF -city ny", check: func(t *testing.T, o *options) {
			want := service.Config{
				CacheSize: service.DefaultCacheSize, DefaultTimeout: 10 * time.Second, MaxTimeout: service.DefaultMaxTimeout,
				MaxK: service.DefaultMaxK, SlowQueryLog: o.node.SlowQueryLog,
			}
			if !reflect.DeepEqual(o.node.Config, want) {
				t.Errorf("config %+v, want %+v", o.node.Config, want)
			}
			if o.addr != ":8080" || o.debugAddr != "" || o.shards != 1 {
				t.Errorf("addr %q debug %q shards %d", o.addr, o.debugAddr, o.shards)
			}
			if !reflect.DeepEqual(o.cities, []string{"SF", "ny"}) {
				t.Errorf("cities %v", o.cities)
			}
			// No role: no RPC listener (the -rpc-addr default must not leak
			// through), no peers, no policy.
			if o.rpcAddr != "" || o.faults != nil || o.node.Peers != nil ||
				o.node.Own != (service.Ownership{}) || o.node.Hedge != (shardrpc.HedgePolicy{}) || o.node.Breaker != (shardrpc.BreakerConfig{}) {
				t.Errorf("roles leaked into a single node: rpc %q, node %+v", o.rpcAddr, o.node)
			}
		}},
		{name: "executor knobs", args: "-city SF -workers 3 -cache -1 -timeout 2s -max-timeout 5s -maxk 7 " +
			"-slow-query 1ms -debug-addr 127.0.0.1:6060 -addr :9", check: func(t *testing.T, o *options) {
			want := service.Config{
				Workers: 3, CacheSize: -1, DefaultTimeout: 2 * time.Second, MaxTimeout: 5 * time.Second, MaxK: 7,
				SlowQueryThreshold: time.Millisecond, SlowQueryLog: o.node.SlowQueryLog,
			}
			if !reflect.DeepEqual(o.node.Config, want) {
				t.Errorf("config %+v, want %+v", o.node.Config, want)
			}
			if o.addr != ":9" || o.debugAddr != "127.0.0.1:6060" {
				t.Errorf("addr %q debug %q", o.addr, o.debugAddr)
			}
		}},
		{name: "rel specs", args: "-rel hotels=h.csv:4 -rel food=f.prox -shards 2", check: func(t *testing.T, o *options) {
			if !reflect.DeepEqual(o.rels, [][2]string{{"hotels", "h.csv:4"}, {"food", "f.prox"}}) || o.shards != 2 {
				t.Errorf("rels %v shards %d", o.rels, o.shards)
			}
		}},
		// The three command lines of the CI multi-process smoke.
		{name: "shard server (ci.yml)", args: "-city SF -shards 6 -shard-server -own 1/2 -rpc-addr 127.0.0.1:9202 -addr 127.0.0.1:9102",
			check: func(t *testing.T, o *options) {
				if o.rpcAddr != "127.0.0.1:9202" || o.node.Own != (service.Ownership{Index: 1, Count: 2, Replicas: 1}) ||
					o.shards != 6 || o.node.Peers != nil {
					t.Errorf("rpc %q own %+v shards %d peers %v", o.rpcAddr, o.node.Own, o.shards, o.node.Peers)
				}
			}},
		{name: "shard server defaults", args: "-city SF -shard-server", check: func(t *testing.T, o *options) {
			if o.rpcAddr != ":8081" || o.node.Own != (service.Ownership{}) {
				t.Errorf("rpc %q own %+v", o.rpcAddr, o.node.Own)
			}
		}},
		{name: "coordinator (ci.yml)", args: "-coordinator -peers 127.0.0.1:9201,127.0.0.1:9202 -addr 127.0.0.1:9100", check: func(t *testing.T, o *options) {
			if !reflect.DeepEqual(o.node.Peers, []string{"127.0.0.1:9201", "127.0.0.1:9202"}) || o.rpcAddr != "" ||
				o.node.Hedge != (shardrpc.HedgePolicy{}) || o.node.Breaker != (shardrpc.BreakerConfig{}) {
				t.Errorf("node %+v rpc %q", o.node, o.rpcAddr)
			}
		}},
		{name: "coordinator policy", args: "-coordinator -peers a:1 -hedge-after 40ms -breaker-cooldown 3s", check: func(t *testing.T, o *options) {
			if o.node.Hedge != (shardrpc.HedgePolicy{After: 40 * time.Millisecond}) || o.node.Breaker != (shardrpc.BreakerConfig{Cooldown: 3 * time.Second}) {
				t.Errorf("hedge %+v breaker %+v", o.node.Hedge, o.node.Breaker)
			}
		}},
		{name: "coordinator never hedging", args: "-coordinator -peers a:1 -hedge-after -1s", check: func(t *testing.T, o *options) {
			if o.node.Hedge != (shardrpc.HedgePolicy{Disable: true}) {
				t.Errorf("hedge %+v", o.node.Hedge)
			}
		}},
		{name: "both roles", args: "-city SF -shard-server -coordinator -peers a:1", check: func(t *testing.T, o *options) {
			if o.rpcAddr != ":8081" || len(o.node.Peers) != 1 {
				t.Errorf("rpc %q peers %v", o.rpcAddr, o.node.Peers)
			}
		}},
		{name: "chaos shard server", args: "-city SF -shard-server -fault-spec verb=pull;action=reset;every=8", chaos: true, check: func(t *testing.T, o *options) {
			if o.faults == nil || len(o.faults.Rules()) != 1 {
				t.Errorf("faults %+v", o.faults)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("PROXSERVE_CHAOS", "")
			if tc.chaos {
				t.Setenv("PROXSERVE_CHAOS", "1")
			}
			args := strings.Fields(tc.args)
			var stderr bytes.Buffer
			if tc.wantErr != "" {
				if code := run(context.Background(), args, &stderr); code != 2 {
					t.Fatalf("exit status %d, want 2", code)
				}
				if !strings.Contains(stderr.String(), tc.wantErr) {
					t.Fatalf("stderr %q does not say %q", stderr.String(), tc.wantErr)
				}
				return
			}
			o, err := parseFlags(args, &stderr)
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			tc.check(t, o)
		})
	}
}

// TestFlagSurface: the flag set is the regression surface of ci.yml and
// the studies in EXPERIMENTS.md — 19 flags, and -h is not a failure.
func TestFlagSurface(t *testing.T) {
	var usage bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &usage); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	flags := 0
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags++
		}
	}
	if flags != 19 {
		t.Fatalf("%d flags, want 19:\n%s", flags, usage.String())
	}
}

// startArgs parses and starts one instance, stopping it with the test.
func startArgs(t *testing.T, args ...string) *instance {
	t.Helper()
	var stderr bytes.Buffer
	o, err := parseFlags(args, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	in, err := start(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.stop) // stopping twice is harmless
	return in
}

// askReady asserts GET /v1/readyz answers 200 and returns the canonical
// form of one fixed query's answer.
func askReady(t *testing.T, in *instance) string {
	t.Helper()
	base := "http://" + in.addr.String()
	resp, err := http.Get(base + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: status %d", resp.StatusCode)
	}
	body := `{"query":[0.01,0.02],"relations":["SF-hotels","SF-restaurants"],"k":5}`
	resp, err = http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var answer api.Response
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil || resp.StatusCode != http.StatusOK || len(answer.Results) != 5 {
		t.Fatalf("query: status %d, %d results, err %v", resp.StatusCode, len(answer.Results), err)
	}
	return service.CanonicalResponse(&answer)
}

func requireRefused(t *testing.T, addr string) {
	t.Helper()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections", addr)
	}
}

// TestNodeRoles starts each role in process the way main does — flags,
// start, stop — and holds the distributed answer to the single node's:
// a single node; a shard server (also a full node over HTTP); a
// coordinator over that shard server. After stop nothing listens.
func TestNodeRoles(t *testing.T) {
	data := []string{"-city", "SF", "-shards", "6", "-addr", "127.0.0.1:0"}
	single := startArgs(t, data...)
	want := askReady(t, single)

	shard := startArgs(t, append(data, "-shard-server", "-rpc-addr", "127.0.0.1:0")...)
	if got := askReady(t, shard); got != want {
		t.Fatalf("shard server over HTTP differs from the single node\nsingle: %s\nshard:  %s", want, got)
	}
	rpcAddr := shard.node.RPCAddr

	coord := startArgs(t, "-coordinator", "-peers", rpcAddr, "-addr", "127.0.0.1:0")
	if got := askReady(t, coord); got != want {
		t.Fatalf("coordinator differs from the single node\nsingle:      %s\ncoordinator: %s", want, got)
	}
	if st := coord.node.Executor.Stats(); st.RemoteStreamsOpened == 0 {
		t.Fatalf("the coordinator answered without touching its peer: %+v", st)
	}

	for _, in := range []*instance{coord, shard, single} {
		in.stop()
		requireRefused(t, in.addr.String())
	}
	requireRefused(t, rpcAddr)
}

// TestNodeRunStops drives the whole command: run parses, starts, sees
// its context end — the signal, in main — stops and exits 0.
func TestNodeRunStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-city", "SF", "-addr", "127.0.0.1:0", "-shard-server", "-rpc-addr", "127.0.0.1:0"}, &stderr)
	}()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit status %d, stderr %q", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context ended")
	}
}

// TestNodeStartFailures: a start that fails exits 1 and leaves nothing
// listening — the RPC port a coordinator-and-shard-server bound before
// its discovery failed is closed again.
func TestNodeStartFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-coordinator", "-peers", dead, "-addr", "127.0.0.1:0"}, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "hello "+dead) {
		t.Fatalf("exit status %d, stderr %q; want 1 and the discovery error", code, stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-city", "XX"}, &stderr); code != 1 || !strings.Contains(stderr.String(), "XX") {
		t.Fatalf("unknown city: exit status %d, stderr %q", code, stderr.String())
	}
}
