// Command proxserve serves proximity rank join queries over HTTP: it
// loads relations into a shared catalog (CSV files and/or the bundled
// simulated city data sets), precomputes their indexes once, and answers
// concurrent queries through a bounded executor with per-query deadlines
// and an LRU result cache.
//
// Relations can be partitioned into shards — per-shard indexes built in
// parallel at load, streams merged per query with byte-identical results
// — via the global -shards flag or a per-relation ":N" suffix on -rel.
//
// Stream delivery is brokered: the engine runs each streamed query to
// completion at engine speed into a bounded per-query buffer and a slow
// client drains at its own pace without holding a worker slot, governed
// by -stream-buffer, -stream-overflow, and -stream-block-timeout.
//
// Distributed serving splits one logical deployment across processes:
// shard servers load the full data set but serve only the shards they
// own over a length-prefixed RPC protocol, and a coordinator discovers
// them, registers their relations as remote entries, and k-way-merges
// their shard streams into byte-identical answers — skipping (pruning)
// every remote shard whose bounding metadata proves it cannot
// contribute. All servers must load identical data with identical
// -shards and -shard-strategy so the global partition agrees.
//
// Usage:
//
//	proxserve -addr :8080 -city SF
//	proxserve -rel hotels=hotels.csv -rel food=food.csv -workers 8
//	proxserve -city NY -shards 8 -shard-strategy grid
//	proxserve -rel hotels=hotels.csv:4 -rel food=food.csv
//
//	# memory-bounded: mmap prebuilt relfiles, spill enumeration to disk
//	proxserve -rel hotels=hotels.prox -rel food=food.prox -spill-dir /tmp/spill
//
//	# a 2-server distributed deployment plus its coordinator:
//	proxserve -city SF -shards 8 -shard-server -rpc-addr :9001 -own 0/2
//	proxserve -city SF -shards 8 -shard-server -rpc-addr :9002 -own 1/2
//	proxserve -coordinator -peers localhost:9001,localhost:9002 -addr :8080
//
// Endpoints (queries speak the versioned api.Request model):
//
//	POST   /v1/query         {"query":[x,y],"relations":["SF-hotels","SF-restaurants"],"k":5}
//	POST   /v1/query/stream  same body; NDJSON result events, first result
//	                         flushed as soon as the engine certifies it
//	GET    /v1/relations
//	POST   /v1/relations?name=bars&shards=4   (CSV body)
//	DELETE /v1/relations/{name}
//	GET    /v1/healthz       liveness (200 while the process runs)
//	GET    /v1/readyz        readiness (503 while the catalog builds or
//	                         some shard has no reachable replica)
//	GET    /v1/stats
//	GET    /metrics          Prometheus text exposition
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
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/faultinject"
	"repro/internal/shardrpc"
	"repro/service"
)

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// logRegistered reports one registration with its catalog-side shape.
func logRegistered(cat *service.Catalog, name, origin string) {
	if e, err := cat.Get(name); err == nil {
		log.Printf("registered %s (%d tuples, %d shard(s), %s)", name, e.Relation().Len(), e.Shards(), origin)
	}
}

func main() {
	var (
		rels   listFlag
		cities listFlag
	)
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "max concurrent engine executions (0 = GOMAXPROCS)")
		cache      = flag.Int("cache", service.DefaultCacheSize, "LRU result-cache capacity in responses (negative disables)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-query deadline (0 = none)")
		maxTimeout = flag.Duration("max-timeout", service.DefaultMaxTimeout, "cap on client-requested timeoutMillis")
		maxK       = flag.Int("maxk", service.DefaultMaxK, "largest accepted K")
		shards     = flag.Int("shards", 1, "default shard count per relation (partitioned indexes, merged per query)")
		strategyFl = flag.String("shard-strategy", "hash", "partitioning strategy: hash or grid")
		streamBuf  = flag.Int("stream-buffer", service.DefaultStreamBuffer,
			"stream delivery buffer: events a client may lag behind the engine")
		overflowFl = flag.String("stream-overflow", service.DefaultStreamOverflow,
			"policy for a stream client that falls a full buffer behind: block (wait, then drop) or drop (immediately)")
		blockFl = flag.Duration("stream-block-timeout", service.DefaultStreamBlockTimeout,
			"total time the engine will wait on one block-policy laggard before dropping it")
		debugAddr = flag.String("debug-addr", "",
			"listen address for the net/http/pprof profiling endpoints (empty = disabled); keep it off public interfaces")
		slowQuery = flag.Duration("slow-query", 0,
			"log every request at least this slow as a JSON line on stderr, with its per-phase trace (0 = disabled)")
		shardServer = flag.Bool("shard-server", false,
			"serve locally-owned shards to coordinators over the shard RPC protocol on -rpc-addr")
		rpcAddr = flag.String("rpc-addr", ":8081",
			"shard RPC listen address (with -shard-server)")
		ownFl = flag.String("own", "",
			"shard ownership as i/n or i/n/r: serve shard s when this server is one of its r consecutive ring owners starting at s%n (empty = every shard)")
		coordinator = flag.Bool("coordinator", false,
			"discover relations from -peers shard servers and answer queries by merging their shard streams")
		peersFl = flag.String("peers", "",
			"comma-separated shard-server RPC addresses (with -coordinator)")
		hedgeAfter = flag.Duration("hedge-after", 0,
			"coordinator: hedge a slow shard pull to another replica after this delay (0 = adaptive per-peer p90, negative = never hedge)")
		breakerCooldown = flag.Duration("breaker-cooldown", 0,
			"coordinator: how long a peer's circuit breaker stays open before probing it again (0 = default 1s)")
		faultSpec = flag.String("fault-spec", "",
			"inject faults into the shard RPC listener per this spec (chaos testing only; refused unless PROXSERVE_CHAOS=1)")
		spillDir = flag.String("spill-dir", "",
			"directory for the file spill tier of BufferSpill sessions: enumeration past the in-memory slab goes to disk segments, keeping resident memory flat (empty = RAM only)")
		spillMem = flag.Int("spill-mem", 0,
			"per-session in-memory spill slab budget in bytes before segments go to -spill-dir (0 = 4 MiB default)")
	)
	flag.Var(&rels, "rel", "relation to serve, as name=path.csv[:shards] or name=path.prox (mmap-backed relfile; repeatable)")
	flag.Var(&cities, "city", "simulated city data set to serve: SF, NY, BO, DA, HO (repeatable)")
	flag.Parse()

	strategy, err := proxrank.ParsePartitionStrategy(*strategyFl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
		os.Exit(2)
	}
	overflow := strings.ToLower(*overflowFl)
	if overflow != api.OverflowBlock && overflow != api.OverflowDrop {
		fmt.Fprintf(os.Stderr, "proxserve: -stream-overflow %q must be %s or %s\n",
			*overflowFl, api.OverflowBlock, api.OverflowDrop)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "proxserve: -shards %d must be at least 1\n", *shards)
		os.Exit(2)
	}

	cat := service.NewCatalog()
	for _, spec := range rels {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fmt.Fprintf(os.Stderr, "proxserve: -rel wants name=path.csv[:shards], got %q\n", spec)
			os.Exit(2)
		}
		// A trailing ":N" on the path overrides the global -shards default
		// for this relation.
		relShards := *shards
		if i := strings.LastIndex(path, ":"); i >= 0 {
			if n, err := strconv.Atoi(path[i+1:]); err == nil && n >= 1 {
				relShards = n
				path = path[:i]
			}
		}
		// A .prox path is a prebuilt relfile: memory-map it as-is (its
		// shard layout was fixed at build time, so ":N" does not apply).
		if strings.HasSuffix(path, proxrank.RelFileExtension) {
			if err := cat.LoadRelFile(name, path); err != nil {
				fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
				os.Exit(1)
			}
			logRegistered(cat, name, "mmap from "+path)
			continue
		}
		if err := cat.LoadCSVFileSharded(name, path, 0, relShards, strategy); err != nil {
			fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
			os.Exit(1)
		}
		logRegistered(cat, name, "from "+path)
	}
	for _, code := range cities {
		cityRels, _, landmark, err := proxrank.CityDataset(strings.ToUpper(code))
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
			os.Exit(1)
		}
		for _, rel := range cityRels {
			if err := cat.RegisterSharded(rel.Name, rel, *shards, strategy); err != nil {
				fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
				os.Exit(1)
			}
			logRegistered(cat, rel.Name, "landmark "+landmark)
		}
	}
	// Coordinator mode: hello every peer, cross-check what they agree to
	// serve, and register each remote relation as a metadata-only entry
	// whose shards resolve to RPC streams at query time. Locally loaded
	// relations keep precedence over a remote relation of the same name.
	var fleet *shardrpc.Fleet
	if *coordinator {
		if *peersFl == "" {
			fmt.Fprintln(os.Stderr, "proxserve: -coordinator needs -peers host:port,...")
			os.Exit(2)
		}
		fleet = shardrpc.NewFleet(strings.Split(*peersFl, ","))
		// Resilience policy must be set before Discover: discovery stamps
		// the hedge policy into every remote relation it registers.
		switch {
		case *hedgeAfter < 0:
			fleet.Hedge = shardrpc.HedgePolicy{Disable: true}
		case *hedgeAfter > 0:
			fleet.Hedge = shardrpc.HedgePolicy{After: *hedgeAfter}
		}
		if *breakerCooldown > 0 {
			fleet.SetBreakerConfig(shardrpc.BreakerConfig{Cooldown: *breakerCooldown})
		}
		discoverCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		remotes, err := fleet.Discover(discoverCtx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
			os.Exit(1)
		}
		for name, rr := range remotes {
			if _, err := cat.Get(name); err == nil {
				log.Printf("relation %s is loaded locally; ignoring the remote copy", name)
				continue
			}
			if err := cat.RegisterRemote(name, rr); err != nil {
				fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
				os.Exit(1)
			}
			log.Printf("registered %s (%d tuples, %d shard(s), remote via %d peer(s))",
				name, rr.Tuples, rr.Shards, len(fleet.Peers()))
		}
	}
	if cat.Len() == 0 {
		fmt.Fprintln(os.Stderr, "proxserve: no relations to serve; pass -rel, -city, or -coordinator -peers")
		os.Exit(2)
	}

	exec := service.NewExecutor(cat, service.Config{
		Workers:            *workers,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		CacheSize:          *cache,
		MaxK:               *maxK,
		StreamBuffer:       *streamBuf,
		StreamOverflow:     overflow,
		StreamBlockTimeout: *blockFl,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       os.Stderr,
		SpillDir:           *spillDir,
		SpillMemBytes:      *spillMem,
	})
	apiServer := service.NewServer(cat, exec)
	if fleet != nil {
		apiServer.AttachFleet(fleet)
	}

	// Shard-server mode: expose this process's owned shards (and whole
	// queries) over the RPC listener, alongside the normal HTTP API.
	var rpcSrv *shardrpc.Server
	if *shardServer {
		own, err := service.ParseOwnership(*ownFl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
			os.Exit(2)
		}
		backend := service.NewShardBackend(cat, exec, own)
		rpcSrv = shardrpc.NewServer(backend)
		var bound net.Addr
		if *faultSpec != "" {
			// Chaos builds only: the env gate keeps a copy-pasted chaos
			// command line from silently corrupting a production server.
			if os.Getenv("PROXSERVE_CHAOS") != "1" {
				fmt.Fprintln(os.Stderr, "proxserve: -fault-spec is a chaos-testing flag; set PROXSERVE_CHAOS=1 to confirm")
				os.Exit(2)
			}
			inj, err := faultinject.Parse(*faultSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
				os.Exit(2)
			}
			ln, err := net.Listen("tcp", *rpcAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proxserve: shard RPC listener: %v\n", err)
				os.Exit(1)
			}
			if err := rpcSrv.Serve(inj.Listener(ln)); err != nil {
				fmt.Fprintf(os.Stderr, "proxserve: shard RPC listener: %v\n", err)
				os.Exit(1)
			}
			bound = ln.Addr()
			log.Printf("CHAOS: injecting faults on the shard RPC listener (%d rule(s))", len(inj.Rules()))
		} else {
			b, err := rpcSrv.Listen(*rpcAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proxserve: shard RPC listener: %v\n", err)
				os.Exit(1)
			}
			bound = b
		}
		backend.SetName(bound.String())
		log.Printf("shard RPC on %s (owning %s)", bound, ownDesc(*ownFl))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           apiServer.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *debugAddr != "" {
		// The profiling endpoints live on their own listener and mux so
		// they can stay bound to localhost while the API faces the world,
		// and so the serving mux never inherits the pprof routes.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			dbgSrv := &http.Server{Addr: *debugAddr, Handler: dbg, ReadHeaderTimeout: 10 * time.Second}
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("proxserve: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving %d relations on %s", cat.Len(), *addr)

	select {
	case err := <-errc:
		log.Fatalf("proxserve: %v", err)
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("proxserve: shutdown: %v", err)
		}
		if rpcSrv != nil {
			rpcSrv.Close()
		}
		if fleet != nil {
			fleet.Close()
		}
		st := exec.Stats()
		log.Printf("served %d queries (%d cache hits, %d canceled)", st.Queries, st.CacheHits, st.Canceled)
	}
}

// ownDesc renders the -own flag for logs.
func ownDesc(own string) string {
	if own == "" {
		return "every shard"
	}
	return "shards " + own
}
