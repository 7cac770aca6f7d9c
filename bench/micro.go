package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/agg"
	"repro/internal/broker"
	"repro/internal/qp"
	"repro/internal/rtree"
	"repro/internal/shardrpc"
	"repro/internal/vec"
	"repro/service"
)

// microRepeats is how often each micro measurement runs; the median is
// reported.
const microRepeats = 5

// medianOf runs fn microRepeats times and returns the median of what it
// reports.
func medianOf(fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, microRepeats)
	for i := 0; i < microRepeats; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// nsPerCall times iters calls of fn and returns nanoseconds per call.
func nsPerCall(iters int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// sink keeps the compiler from discarding measured results.
var sink float64

// microSet is the fixed-size leaf-package measurements: calls into vec,
// agg, qp, rtree, relation's merge and the broker at sizes that do not
// depend on the workload, so they read the same on every workload and
// move only when the leaf itself changes. wire adds the shardrpc
// measurements, which only the coordinator workload has on its path.
func microSet(wire bool, out map[string]float64) error {
	cfg := proxrank.DefaultSyntheticConfig()
	cfg.BaseTuples, cfg.Dim, cfg.Seed = 20000, 4, dataSeed
	rels, err := proxrank.SyntheticRelations(cfg)
	if err != nil {
		return err
	}
	rel := rels[0]
	rng := rand.New(rand.NewSource(7))

	for _, dim := range []int{4, 8} {
		block := make([]vec.Vector, 64)
		for i := range block {
			block[i] = uniformVec(rng, dim, 1)
		}
		q := vec.Vector(uniformVec(rng, dim, 1))
		dst := make([]float64, len(block))
		v, _ := medianOf(func() (float64, error) {
			return nsPerCall(20000, func() { vec.Dist2Into(dst, block, q) }), nil
		})
		sink += dst[0]
		out[fmt.Sprintf("vec.dist2into_ns.d%d", dim)] = v

		fn, err := agg.NewEuclideanSum(agg.DefaultWeights(), agg.LogScore)
		if err != nil {
			return err
		}
		xs := []vec.Vector{uniformVec(rng, dim, 1), uniformVec(rng, dim, 1)}
		qterms := []float64{fn.QTerm(0, 0.5, xs[0], q), 0}
		candQ := make([]float64, len(block))
		for i, x := range block {
			candQ[i] = fn.QTerm(1, 0.5, x, q)
		}
		var scr agg.BlockScratch
		scores := make([]float64, len(block))
		v, _ = medianOf(func() (float64, error) {
			return nsPerCall(10000, func() { fn.ScoreBlock(q, qterms, xs, 1, candQ, block, &scr, scores) }), nil
		})
		sink += scores[0]
		out[fmt.Sprintf("agg.scoreblock_ns.d%d", dim)] = v
	}

	var scr qp.Scratch
	fixed, lower := []float64{0.3}, []float64{0.2}
	v, err := medianOf(func() (float64, error) {
		var qerr error
		ns := nsPerCall(50000, func() {
			sol, err := qp.Eval(1, 1, fixed, lower, &scr)
			if err != nil {
				qerr = err
			}
			sink += sol.Objective
		})
		return ns, qerr
	})
	if err != nil {
		return fmt.Errorf("qp.Eval: %w", err)
	}
	out["qp.eval_ns"] = v

	pts := make([]vec.Vector, rel.Len())
	ids := make([]int, rel.Len())
	for i := range pts {
		pts[i] = rel.At(i).Vec
		ids[i] = i
	}
	var tree *rtree.Tree[int]
	v, _ = medianOf(func() (float64, error) {
		start := time.Now()
		tree = rtree.BulkLoad(rel.Dim(), pts, ids)
		return float64(time.Since(start).Nanoseconds()) / 1e6, nil
	})
	out["rtree.bulkload_ms"] = v
	queries := make([]vec.Vector, 50)
	for i := range queries {
		queries[i] = uniformVec(rng, rel.Dim(), cfg.SideLength()/4)
	}
	const nnPrefix = 100
	v, _ = medianOf(func() (float64, error) {
		start := time.Now()
		for _, q := range queries {
			it := tree.NearestNeighbors(q)
			for s := 0; s < nnPrefix; s++ {
				_, d, _ := it.Next()
				sink += d
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(queries)*nnPrefix), nil
	})
	out["rtree.nn_step_ns"] = v

	sharded, err := proxrank.NewShardedRelation(rel, 12, proxrank.GridPartition)
	if err != nil {
		return err
	}
	const pops = 2000
	v, err = medianOf(func() (float64, error) {
		srcs := make([]proxrank.Source, sharded.NumShards())
		for s := range srcs {
			src, err := sharded.ShardSource(s, proxrank.DistanceAccess, queries[0], nil, true)
			if err != nil {
				return 0, err
			}
			srcs[s] = src
		}
		merged, err := sharded.Merge(srcs)
		if err != nil {
			return 0, err
		}
		if _, err := merged.Next(); err != nil { // primes every shard head
			return 0, err
		}
		start := time.Now()
		for i := 0; i < pops; i++ {
			t, err := merged.Next()
			if err != nil {
				return 0, err
			}
			sink += t.Score
		}
		return float64(time.Since(start).Nanoseconds()) / pops, nil
	})
	if err != nil {
		return fmt.Errorf("merged pop: %w", err)
	}
	out["relation.merged_pop_ns"] = v

	for _, subs := range []int{1, 4} {
		v, err := medianOf(func() (float64, error) { return brokerPublishDrain(subs) })
		if err != nil {
			return fmt.Errorf("broker: %w", err)
		}
		out[fmt.Sprintf("broker.publish_drain_ns_per_event.sub%d", subs)] = v
	}

	if wire {
		return wireMicro(rel, out)
	}
	return nil
}

// brokerEvents is the event count of one broker measurement.
const brokerEvents = 10000

// brokerPublishDrain publishes brokerEvents result events into a fresh
// topic with the service's lag window while subs subscribers drain it,
// and returns nanoseconds per event from first publish to last drain.
func brokerPublishDrain(subs int) (float64, error) {
	topic := broker.New[api.ResultEvent](service.DefaultStreamBuffer, service.DefaultStreamBlockTimeout)
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	ctx := context.Background()
	for i := 0; i < subs; i++ {
		sub := topic.Subscribe(broker.PolicyBlock)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Cancel()
			seen := 0
			for {
				_, err := sub.Next(ctx)
				if errors.Is(err, broker.ErrDone) {
					if seen != brokerEvents {
						errs <- fmt.Errorf("subscriber drained %d of %d events", seen, brokerEvents)
					}
					return
				}
				if err != nil {
					errs <- err
					return
				}
				seen++
			}
		}()
	}
	ev := api.ResultEvent{Type: api.EventResult, Rank: 1}
	start := time.Now()
	for i := 0; i < brokerEvents; i++ {
		topic.Publish(ev)
	}
	topic.Close(nil)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return float64(elapsed.Nanoseconds()) / brokerEvents, nil
}

// countingListener counts every byte crossing the connections it accepts,
// both ways: the wire cost of a shard stream as the kernel sees it.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// wireRows is how many rows one shardrpc measurement drains.
const wireRows = 1024

// wireMicro serves rel as one shard from a loopback shardrpc server
// behind a byte-counting listener and drains wireRows rows through
// OpenRemoteShard at the default batch size.
func wireMicro(rel *proxrank.Relation, out map[string]float64) error {
	cat := service.NewCatalog()
	if err := cat.Register(rel.Name, rel); err != nil {
		return err
	}
	backend := service.NewShardBackend(cat, service.NewExecutor(cat, service.Config{CacheSize: -1}), service.Ownership{})
	srv := shardrpc.NewServer(backend)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wireBytes atomic.Int64
	if err := srv.Serve(countingListener{Listener: ln, bytes: &wireBytes}); err != nil {
		ln.Close()
		return err
	}
	defer srv.Close()
	backend.SetName(ln.Addr().String())
	fleet := shardrpc.NewFleet([]string{ln.Addr().String()})
	defer fleet.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	remotes, err := fleet.Discover(ctx)
	if err != nil {
		return err
	}
	rr := remotes[rel.Name]
	stub, err := rr.Stub()
	if err != nil {
		return err
	}
	query := make([]float64, rel.Dim())
	peer := fleet.Peers()[0]

	var rtts, perRow, bytesPerRow []float64
	for rep := 0; rep < microRepeats; rep++ {
		pulls0, bytes0 := peer.Pulls.Load(), wireBytes.Load()
		rs, err := shardrpc.OpenRemoteShard(ctx, stub, rr, 0, api.AccessDistance, query, 0)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < wireRows; i++ {
			t, _, _, err := rs.NextKeyed()
			if err != nil {
				rs.Close()
				return fmt.Errorf("drain remote shard: %w", err)
			}
			sink += t.Score
		}
		elapsed := float64(time.Since(start).Nanoseconds()) / 1e3
		rs.Close()
		rtts = append(rtts, ratio(elapsed, float64(peer.Pulls.Load()-pulls0)))
		perRow = append(perRow, elapsed/wireRows)
		bytesPerRow = append(bytesPerRow, float64(wireBytes.Load()-bytes0)/wireRows)
	}
	out["shardrpc.pull_rtt_us"] = median(rtts)
	out["shardrpc.us_per_row"] = median(perRow)
	out["shardrpc.bytes_per_row"] = median(bytesPerRow)
	return nil
}
