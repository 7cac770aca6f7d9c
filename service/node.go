package service

import (
	"context"
	"net"
	"net/http"
	"time"

	"repro/internal/shardrpc"
)

// NodeConfig says what one serving process is: its executor's tuning and
// which of the two distributed roles it takes — neither (a single node),
// either, or both. Every value is a proxserve flag.
type NodeConfig struct {
	Config

	// RPCListener, when set, makes the node a shard server: the shards of
	// its local relations that Own selects are served on it, under its
	// address as the hello name. It arrives bound so the caller picks the
	// address and may wrap it (internal/faultinject); Open takes it over.
	RPCListener net.Listener
	Own         Ownership

	// Peers, when non-empty, makes the node a coordinator over the shard
	// servers at these RPC addresses, under the Hedge and Breaker policy
	// (zero values: adaptive hedging, default thresholds).
	Peers   []string
	Hedge   shardrpc.HedgePolicy
	Breaker shardrpc.BreakerConfig
}

// Node is one assembled serving process. Listening for HTTP stays with
// the caller: a daemon, a load generator and a test want three different
// http.Servers around Handler.
type Node struct {
	Executor *Executor
	// Fleet is the coordinator's peer set, nil without that role.
	Fleet *shardrpc.Fleet
	// Shadowed names what the fleet serves but the catalog already held:
	// a locally loaded relation wins over a remote one of its name.
	Shadowed []string
	// RPCAddr is the bound shard RPC address, empty without that role.
	RPCAddr string

	server *Server
	rpc    *shardrpc.Server
}

// Open assembles a node over a loaded catalog, in the one order that
// keeps answers identical across topologies: executor and HTTP front end;
// the shard server, named after its bound listener before it accepts;
// then the coordinator — policy stamped on the fleet before discovery
// copies it into every remote relation, discovery within 30 s, remote
// entries behind local names, and the fleet attached exactly once, after
// discovery, so its per-peer histograms hold query traffic only. A
// failure closes what was started, the listener included.
func Open(ctx context.Context, cat *Catalog, cfg NodeConfig) (*Node, error) {
	n := &Node{Executor: NewExecutor(cat, cfg.Config)}
	n.server = NewServer(cat, n.Executor)
	if ln := cfg.RPCListener; ln != nil {
		n.RPCAddr = ln.Addr().String()
		backend := NewShardBackend(cat, n.Executor, cfg.Own)
		backend.SetName(n.RPCAddr)
		n.rpc = shardrpc.NewServer(backend)
		if err := n.rpc.Serve(ln); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	if len(cfg.Peers) == 0 {
		return n, nil
	}
	n.Fleet = shardrpc.NewFleet(cfg.Peers)
	n.Fleet.Hedge = cfg.Hedge
	n.Fleet.SetBreakerConfig(cfg.Breaker)
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	remotes, err := n.Fleet.Discover(ctx) // no remotes on error
	for name, rr := range remotes {
		if _, miss := cat.Get(name); miss == nil {
			n.Shadowed = append(n.Shadowed, name)
			continue
		}
		if err = cat.RegisterRemote(name, rr); err != nil {
			break
		}
	}
	if err != nil {
		n.Close()
		return nil, err
	}
	n.server.AttachFleet(n.Fleet)
	return n, nil
}

// Handler returns the node's HTTP API, ready for an http.Server.
func (n *Node) Handler() http.Handler { return n.server.Handler() }

// Close stops the shard RPC server (listener, connections, handlers),
// then drops the fleet's connection pools: a node holding both roles
// stops answering before it stops asking. Closing twice is a no-op;
// queries already running finish on their own deadlines.
func (n *Node) Close() {
	if n.rpc != nil {
		n.rpc.Close()
	}
	if n.Fleet != nil {
		n.Fleet.Close()
	}
}
