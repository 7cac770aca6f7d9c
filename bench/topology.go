package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	proxrank "repro"
	"repro/internal/shardrpc"
	"repro/service"
)

// inputs is what the benchmark prepares before the program under test is
// set up: generated relations and, for the relfile topology, the .prox
// files and the spill directory. Preparing them is the benchmark's own
// cost and is excluded from setup_s (reported as datagen.generate_ms and
// relfile.write_ms instead).
type inputs struct {
	rels     []*proxrank.Relation
	relfiles []string // one per relation, topoRelfile only
	spillDir string

	generate     time.Duration
	relfileWrite time.Duration
	relfileBytes int64
}

// spillMemBytes is the in-memory spill slab of the relfile topology: small
// enough that a dim-8 K=10 query overflows it to PROXSPL1 segments.
const spillMemBytes = 65536

// prepareInputs generates the workload's relations and writes relfiles
// under dir when the topology serves from them.
func prepareInputs(w *workload, dir string) (*inputs, error) {
	in := &inputs{}
	start := time.Now()
	rels, err := proxrank.SyntheticRelations(w.dataConfig())
	if err != nil {
		return nil, fmt.Errorf("generate relations: %w", err)
	}
	in.rels = rels
	in.generate = time.Since(start)
	if w.topology != topoRelfile {
		return in, nil
	}
	in.spillDir = filepath.Join(dir, "spill")
	if err := os.MkdirAll(in.spillDir, 0o755); err != nil {
		return nil, err
	}
	start = time.Now()
	for _, rel := range rels {
		sharded, err := proxrank.NewShardedRelation(rel, proxrank.AutoShardCount(rel.Len()), proxrank.GridPartition)
		if err != nil {
			return nil, fmt.Errorf("partition %s: %w", rel.Name, err)
		}
		path := filepath.Join(dir, rel.Name+proxrank.RelFileExtension)
		if err := proxrank.SaveRelFile(path, sharded); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		in.relfileBytes += st.Size()
		in.relfiles = append(in.relfiles, path)
	}
	in.relfileWrite = time.Since(start)
	return in, nil
}

// topology is the program under test, set up in-process and reachable
// over loopback HTTP at url. cat and exec are the front node's (the
// coordinator's on topoCoord3); fleet is set on topoCoord3 only.
type topology struct {
	url   string
	cat   *service.Catalog
	exec  *service.Executor
	fleet *shardrpc.Fleet

	closers []func()
}

// close tears the topology down, newest part first, and returns once
// every listener and server goroutine has stopped.
func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

// serveHTTP puts the service's handler on a loopback listener.
func (t *topology) serveHTTP(cat *service.Catalog, exec *service.Executor, fleet *shardrpc.Fleet) error {
	apiSrv := service.NewServer(cat, exec)
	if fleet != nil {
		apiSrv.AttachFleet(fleet)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: apiSrv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	t.closers = append(t.closers, func() {
		_ = srv.Close()
		<-done
	})
	t.url = "http://" + ln.Addr().String()
	t.cat, t.exec, t.fleet = cat, exec, fleet
	return nil
}

// buildTopology sets the program up the way cmd/proxload -selfserve does:
// catalog admission (index builds, relfile mapping, or fleet discovery),
// executor, HTTP listener. Warm-up is the caller's.
func buildTopology(w *workload, in *inputs) (*topology, error) {
	t := &topology{}
	cfg := service.Config{CacheSize: w.cacheSize}
	var err error
	switch w.topology {
	case topoSingle:
		err = t.buildSingle(in, cfg)
	case topoRelfile:
		cfg.SpillDir = in.spillDir
		cfg.SpillMemBytes = spillMemBytes
		err = t.buildRelfile(in, cfg)
	case topoCoord3:
		err = t.buildCoord(w, in, cfg)
	default:
		err = fmt.Errorf("unknown topology %q", w.topology)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *topology) buildSingle(in *inputs, cfg service.Config) error {
	cat := service.NewCatalog()
	for _, rel := range in.rels {
		// shards == 0: admission picks the count from the relation size.
		if err := cat.RegisterSharded(rel.Name, rel, 0, proxrank.GridPartition); err != nil {
			return err
		}
	}
	return t.serveHTTP(cat, service.NewExecutor(cat, cfg), nil)
}

func (t *topology) buildRelfile(in *inputs, cfg service.Config) error {
	cat := service.NewCatalog()
	for i, rel := range in.rels {
		if err := cat.LoadRelFile(rel.Name, in.relfiles[i]); err != nil {
			return err
		}
	}
	return t.serveHTTP(cat, service.NewExecutor(cat, cfg), nil)
}

// coordPeers is the number of shard servers behind the coordinator.
const coordPeers = 3

func (t *topology) buildCoord(w *workload, in *inputs, cfg service.Config) error {
	addrs := make([]string, coordPeers)
	for i := range addrs {
		cat := service.NewCatalog()
		for _, rel := range in.rels {
			if err := cat.RegisterSharded(rel.Name, rel, w.coordShards, proxrank.GridPartition); err != nil {
				return err
			}
		}
		backend := service.NewShardBackend(cat, service.NewExecutor(cat, cfg),
			service.Ownership{Index: i, Count: coordPeers, Replicas: 1})
		srv := shardrpc.NewServer(backend)
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		t.closers = append(t.closers, srv.Close)
		backend.SetName(bound.String())
		addrs[i] = bound.String()
	}
	fleet := shardrpc.NewFleet(addrs)
	t.closers = append(t.closers, fleet.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	remotes, err := fleet.Discover(ctx)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(remotes))
	for name := range remotes {
		names = append(names, name)
	}
	sort.Strings(names)
	cat := service.NewCatalog()
	for _, name := range names {
		if err := cat.RegisterRemote(name, remotes[name]); err != nil {
			return err
		}
	}
	return t.serveHTTP(cat, service.NewExecutor(cat, cfg), fleet)
}

// buildTwin is the oracle every sampled response is compared with: the
// same relations, unsharded, uncached, on the heap, single node — none of
// the partitioning, merging, wire, mmap or spill code is on its path.
func buildTwin(rels []*proxrank.Relation) (*service.Executor, error) {
	cat := service.NewCatalog()
	for _, rel := range rels {
		if err := cat.Register(rel.Name, rel); err != nil {
			return nil, err
		}
	}
	return service.NewExecutor(cat, service.Config{CacheSize: -1}), nil
}
