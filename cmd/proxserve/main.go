// Command proxserve serves proximity rank join queries over HTTP: it
// loads relations into a shared catalog (CSV files and/or the bundled
// simulated city data sets), precomputes their indexes once, and answers
// concurrent queries through a bounded executor with per-query deadlines
// and an LRU result cache.
//
// Relations can be partitioned into shards — size-balanced grid boxes,
// per-shard indexes built in parallel at load, streams merged per query
// with byte-identical results — via the global -shards flag or a
// per-relation ":N" suffix on -rel.
//
// Stream delivery is brokered: the engine runs each streamed query to
// completion at engine speed into a per-query log of at most K + 1
// events, and a slow client drains it at its own pace without holding a
// worker slot or delaying any other client.
//
// Distributed serving splits one logical deployment across processes:
// shard servers load the full data set but serve only the shards they
// own over a length-prefixed RPC protocol, and a coordinator discovers
// them, registers their relations as remote entries, and k-way-merges
// their shard streams into byte-identical answers — skipping (pruning)
// every remote shard whose bounding metadata proves it cannot
// contribute. All servers must load identical data with identical
// -shards so the global partition agrees.
//
// Usage:
//
//	proxserve -addr :8080 -city SF
//	proxserve -rel hotels=hotels.csv -rel food=food.csv -workers 8
//	proxserve -city NY -shards 8
//	proxserve -rel hotels=hotels.csv:4 -rel food=food.csv
//	proxserve -rel hotels=hotels.prox -rel food=food.prox
//
//	# a 2-server distributed deployment plus its coordinator:
//	proxserve -city SF -shards 8 -shard-server -rpc-addr :9001 -own 0/2
//	proxserve -city SF -shards 8 -shard-server -rpc-addr :9002 -own 1/2
//	proxserve -coordinator -peers localhost:9001,localhost:9002 -addr :8080
//
// Endpoints: queries speak the versioned api.Request model on POST
// /v1/query and /v1/query/stream, beside relation management, /v1/healthz
// (liveness), /v1/readyz (readiness) and /metrics. The route
// table is kept once, on service.Server; docs/API.md is the wire
// reference.
//
// Flags that belong to a role (-own, -rpc-addr, -fault-spec to
// -shard-server; -peers, -hedge-after, -breaker-cooldown to -coordinator)
// are refused without it, exit status 2, rather than ignored.
//
// Observability: -slow-query logs requests past a duration threshold as
// JSON lines (same trace structure the api's trace flag returns), and
// -debug-addr opens the net/http/pprof endpoints on a separate listener
// kept off the serving mux.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	proxrank "repro"
	"repro/internal/faultinject"
	"repro/internal/shardrpc"
	"repro/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: parse, start, serve until ctx ends (the
// signal, in main), stop. It returns the exit status: 2 for a command
// line it refuses, 1 for a start or serve failure.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "proxserve: %v\n", err)
		return 2
	}
	in, err := start(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "proxserve: %v\n", err)
		return 1
	}
	defer in.stop()
	select {
	case err := <-in.errc:
		fmt.Fprintf(stderr, "proxserve: %v\n", err)
		return 1
	case <-ctx.Done():
		log.Print("shutting down")
		return 0
	}
}

// options is a parsed command line: where to listen, what to load, and
// the node to open over it.
type options struct {
	addr, debugAddr string
	rels            [][2]string // -rel, as name and path[:shards]
	cities          []string
	shards          int
	// node lacks only its RPCListener, which start binds on rpcAddr —
	// empty without -shard-server — behind faults when -fault-spec is set.
	node         service.NodeConfig
	rpcAddr, own string
	faults       *faultinject.Injector
}

// parseFlags turns the command line into options, refusing what it
// cannot honour: every error it returns is a usage error.
func parseFlags(args []string, stderr io.Writer) (_ *options, err error) {
	o := &options{}
	c := &o.node.Config
	c.SlowQueryLog = stderr
	var shardServer, coordinator bool
	var peers string
	var hedgeAfter time.Duration
	fs := flag.NewFlagSet("proxserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Workers, "workers", 0, "max concurrent engine executions (0 = GOMAXPROCS)")
	fs.IntVar(&c.CacheSize, "cache", service.DefaultCacheSize, "LRU result-cache capacity in responses (negative disables)")
	fs.DurationVar(&c.DefaultTimeout, "timeout", 10*time.Second, "default per-query deadline (0 = none)")
	fs.DurationVar(&c.MaxTimeout, "max-timeout", service.DefaultMaxTimeout, "cap on client-requested timeoutMillis")
	fs.IntVar(&c.MaxK, "maxk", service.DefaultMaxK, "largest accepted K")
	fs.IntVar(&o.shards, "shards", 1, "default shard count per relation (partitioned indexes, merged per query)")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"listen address for the net/http/pprof profiling endpoints (empty = disabled); keep it off public interfaces")
	fs.DurationVar(&c.SlowQueryThreshold, "slow-query", 0,
		"log every request at least this slow as a JSON line on stderr, with its per-phase trace (0 = disabled)")
	fs.BoolVar(&shardServer, "shard-server", false,
		"serve locally-owned shards to coordinators over the shard RPC protocol on -rpc-addr")
	fs.StringVar(&o.rpcAddr, "rpc-addr", ":8081",
		"shard RPC listen address (with -shard-server)")
	fs.Func("own",
		"shard ownership as i/n or i/n/r: serve shard s when this server is one of its r consecutive ring owners starting at s%n (empty = every shard)",
		func(v string) (err error) { o.own = v; o.node.Own, err = service.ParseOwnership(v); return err })
	fs.BoolVar(&coordinator, "coordinator", false,
		"discover relations from -peers shard servers and answer queries by merging their shard streams")
	fs.StringVar(&peers, "peers", "",
		"comma-separated shard-server RPC addresses (with -coordinator)")
	fs.DurationVar(&hedgeAfter, "hedge-after", 0,
		"coordinator: hedge a slow shard pull to another replica after this delay (0 = adaptive per-peer p90, negative = never hedge)")
	fs.DurationVar(&o.node.Breaker.Cooldown, "breaker-cooldown", 0,
		"coordinator: how long a peer's circuit breaker stays open before probing it again (0 = default 1s)")
	fs.Func("fault-spec",
		"inject faults into the shard RPC listener per this spec (chaos testing only; refused unless PROXSERVE_CHAOS=1)",
		func(v string) (err error) { o.faults, err = faultinject.Parse(v); return err })
	fs.Func("rel", "relation to serve, as name=path.csv[:shards] or name=path.prox (mmap-backed relfile; repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path.csv[:shards], got %q", v)
		}
		o.rels = append(o.rels, [2]string{name, path})
		return nil
	})
	fs.Func("city", "simulated city data set to serve: SF, NY, BO, DA, HO (repeatable)",
		func(v string) error { o.cities = append(o.cities, v); return nil })
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// A role's flag without the role used to be dropped on the floor: a
	// server started with -own 0/2 alone served every shard. Visit, not
	// the values, says what was given: -rpc-addr has a default.
	roleOf := map[string]string{
		"own": "-shard-server", "rpc-addr": "-shard-server", "fault-spec": "-shard-server",
		"peers": "-coordinator", "hedge-after": "-coordinator", "breaker-cooldown": "-coordinator",
	}
	roleOn := map[string]bool{"-shard-server": shardServer, "-coordinator": coordinator}
	fs.Visit(func(f *flag.Flag) {
		if role, ok := roleOf[f.Name]; ok && !roleOn[role] && err == nil {
			err = fmt.Errorf("-%s needs %s", f.Name, role)
		}
	})
	if err != nil {
		return nil, err
	}
	switch {
	case o.shards < 1:
		return nil, fmt.Errorf("-shards %d must be at least 1", o.shards)
	case len(o.rels)+len(o.cities) == 0 && !coordinator:
		return nil, errors.New("no relations to serve; pass -rel, -city, or -coordinator -peers")
	case coordinator && peers == "":
		return nil, errors.New("-coordinator needs -peers host:port,...")
	case o.faults != nil && os.Getenv("PROXSERVE_CHAOS") != "1":
		// Chaos builds only: the env gate keeps a copy-pasted chaos command
		// line from silently corrupting a production server.
		return nil, errors.New("-fault-spec is a chaos-testing flag; set PROXSERVE_CHAOS=1 to confirm")
	}
	if !shardServer {
		o.rpcAddr = ""
	}
	if coordinator {
		o.node.Peers = strings.Split(peers, ",")
		switch {
		case hedgeAfter < 0:
			o.node.Hedge = shardrpc.HedgePolicy{Disable: true}
		case hedgeAfter > 0:
			o.node.Hedge = shardrpc.HedgePolicy{After: hedgeAfter}
		}
	}
	return o, nil
}

// loadCatalog loads the -rel files and -city data sets, indexes built.
func loadCatalog(o *options) (*service.Catalog, error) {
	cat := service.NewCatalog()
	// registered reports one registration with its catalog-side shape.
	registered := func(name, origin string) {
		if e, err := cat.Get(name); err == nil {
			log.Printf("registered %s (%d tuples, %d shard(s), %s)", name, e.Relation().Len(), e.Shards(), origin)
		}
	}
	for _, rel := range o.rels {
		name, path, shards := rel[0], rel[1], o.shards
		// A trailing ":N" on the path overrides the global -shards default
		// for this relation.
		if i := strings.LastIndex(path, ":"); i >= 0 {
			if n, err := strconv.Atoi(path[i+1:]); err == nil && n >= 1 {
				path, shards = path[:i], n
			}
		}
		// A .prox path is a prebuilt relfile: memory-map it as-is (its
		// shard layout was fixed at build time, so ":N" does not apply).
		if strings.HasSuffix(path, proxrank.RelFileExtension) {
			if err := cat.LoadRelFile(name, path); err != nil {
				return nil, err
			}
			registered(name, "mmap from "+path)
			continue
		}
		if err := cat.LoadCSVFileSharded(name, path, 0, shards); err != nil {
			return nil, err
		}
		registered(name, "from "+path)
	}
	for _, code := range o.cities {
		cityRels, _, landmark, err := proxrank.CityDataset(strings.ToUpper(code))
		if err != nil {
			return nil, err
		}
		for _, rel := range cityRels {
			if err := cat.RegisterSharded(rel.Name, rel, o.shards); err != nil {
				return nil, err
			}
			registered(rel.Name, "landmark "+landmark)
		}
	}
	return cat, nil
}

// instance is one running proxserve: a node behind its HTTP listener
// (and, with -debug-addr, the pprof one).
type instance struct {
	node  *service.Node
	http  *http.Server
	debug *http.Server
	// addr is the bound HTTP address; errc carries the API server's
	// failure.
	addr net.Addr
	errc chan error
}

// start loads the catalog, opens the node over it (service.Open does the
// role bring-up) and begins serving HTTP. On failure nothing is left
// running.
func start(ctx context.Context, o *options) (*instance, error) {
	cat, err := loadCatalog(o)
	if err != nil {
		return nil, err
	}
	cfg := o.node
	if o.rpcAddr != "" {
		ln, err := net.Listen("tcp", o.rpcAddr)
		if err != nil {
			return nil, fmt.Errorf("shard RPC listener: %w", err)
		}
		if o.faults != nil {
			ln = o.faults.Listener(ln)
			log.Printf("CHAOS: injecting faults on the shard RPC listener (%d rule(s))", len(o.faults.Rules()))
		}
		cfg.RPCListener = ln
	}
	node, err := service.Open(ctx, cat, cfg)
	if err != nil {
		return nil, err
	}
	if cat.Len() == 0 {
		node.Close()
		return nil, errors.New("no relations to serve: the peers advertise none")
	}
	for _, name := range node.Shadowed {
		log.Printf("relation %s is loaded locally; ignoring the remote copy", name)
	}
	for _, ri := range cat.Infos() {
		if ri.Remote {
			log.Printf("registered %s (%d tuples, %d shard(s), remote via %d peer(s))",
				ri.Name, ri.Tuples, ri.Shards, len(node.Fleet.Peers()))
		}
	}
	if node.RPCAddr != "" {
		own := "every shard"
		if o.own != "" {
			own = "shards " + o.own
		}
		log.Printf("shard RPC on %s (owning %s)", node.RPCAddr, own)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		node.Close()
		return nil, err
	}
	in := &instance{node: node, addr: ln.Addr(), errc: make(chan error, 1)}
	in.http = &http.Server{Handler: node.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { in.errc <- in.http.Serve(ln) }()
	if o.debugAddr != "" {
		// The profiling endpoints (registered on the default mux by the
		// net/http/pprof import) live on their own listener so they can stay
		// bound to localhost while the API faces the world; the serving mux
		// is the node's own and never inherits them.
		in.debug = &http.Server{Addr: o.debugAddr, ReadHeaderTimeout: 10 * time.Second}
		log.Printf("pprof on %s/debug/pprof/", o.debugAddr)
		go func() {
			if err := in.debug.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("proxserve: pprof listener: %v", err)
			}
		}()
	}
	log.Printf("serving %d relations on %s", cat.Len(), in.addr)
	return in, nil
}

// stop shuts the instance down: HTTP drains for up to five seconds, then
// the node closes (RPC server, then fleet), then the final tally.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := in.http.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("proxserve: shutdown: %v", err)
	}
	if in.debug != nil {
		_ = in.debug.Close()
	}
	in.node.Close()
	st := in.node.Executor.Stats()
	log.Printf("served %d queries (%d cache hits, %d canceled)", st.Queries, st.CacheHits, st.Canceled)
}
