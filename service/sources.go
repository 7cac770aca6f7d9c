package service

import (
	"context"

	proxrank "repro"
	"repro/api"
	"repro/internal/relation"
	"repro/internal/shardrpc"
)

// openSession is the setup half of an engine run: claim a worker slot,
// open the per-relation sources, and build the bounded query session. On
// error the slot is already released and the failure counters recorded;
// on success the caller owns done, the end of the session: close the
// query — which closes every source, returning remote connections and
// traversal queues — then settle the remote sources' accounting, then
// hand the slot back.
//
// The session buffer is bounded to K — a query delivers at most K
// results (certified prefix plus DNF drain) — so peak memory is O(K),
// and the session is a bounded consumer: no spill tier, whatever the
// request's bufferPolicy says.
func (x *Executor) openSession(ctx context.Context, query proxrank.Vector, opts proxrank.Options, entries []*Entry, partial bool) (*proxrank.Query, func() []api.MissingShard, func(), *api.Error) {
	release, aerr := x.acquireSlot(ctx)
	if aerr != nil {
		return nil, nil, nil, aerr
	}
	opened := false
	defer func() {
		if !opened {
			release()
		}
	}()
	sources, missing, settle, aerr := x.buildSources(ctx, opts, query, entries, partial)
	if aerr != nil {
		x.failed.Add(1)
		return nil, nil, nil, aerr
	}
	q, err := proxrank.NewQuerySources(query, sources, opts.BoundedToK())
	if err != nil {
		settle() // nothing to close: no source has been read yet
		x.failed.Add(1)
		return nil, nil, nil, asAPIError(err)
	}
	opened = true
	done := func() {
		q.Close()
		settle()
		release()
	}
	return q, missing, done, nil
}

// wireAccess maps an engine access kind to its wire name.
func wireAccess(kind proxrank.AccessKind) string {
	if kind == proxrank.ScoreAccess {
		return api.AccessScore
	}
	return api.AccessDistance
}

// buildSources opens one engine stream per relation. A local entry is one
// relation.OpenSource call — the same call the library makes — which
// picks the access path the entry's shards own (a cursor for score access,
// the per-shard R-trees for distance access) and merges the shard streams
// back into the relation's canonical order; opening is O(1) a shard, so
// there is nothing to fan out. The dim pre-check in prepare already rules
// out the only documented source failure; anything surfacing here is a
// server-side problem, which the caller reports as internal.
//
// Remote entries (coordinator mode) resolve each group of shards that
// share an owner list (shardrpc.RemoteRelation.Groups: one per peer under
// ring ownership) to one shardrpc.RemoteSource — constructed lazily, so
// nothing touches the network here — whose server merges the group, and
// merge the groups with the same k-way merge local shards use. partial
// puts every remote source in partial mode: a group whose every replica
// is unreachable ends its stream early (and each of its shards is
// reported by the returned missing collector) instead of failing the
// query. The returned cleanup must run once the engine is done with the
// sources: it releases remote connections and settles the pruning and
// over-fetch accounting per shard (a shard no merge read — the
// coordinator's or its server's — is pruned; the rows the merge took
// from the groups are the consumed side of rows fetched ÷ rows
// consumed). It is always non-nil, also on error. missing must be called
// by the goroutine that drove the engine, after the run finishes and
// before the sources are discarded.
func (x *Executor) buildSources(ctx context.Context, opts proxrank.Options, query proxrank.Vector, entries []*Entry, partial bool) ([]proxrank.Source, func() []api.MissingShard, func(), *api.Error) {
	var remotes []*shardrpc.RemoteSource
	missing := func() []api.MissingShard {
		var out []api.MissingShard
		for _, rs := range remotes {
			if rs.Missing() {
				for _, s := range rs.Shards() {
					out = append(out, api.MissingShard{Relation: rs.RelationName(), Shard: s})
				}
			}
		}
		return out
	}
	settle := func() {
		var opened, pruned, consumed int64
		for _, rs := range remotes {
			read := rs.ShardsRead()
			opened += int64(read)
			pruned += int64(len(rs.Shards()) - read)
			consumed += int64(rs.Consumed())
		}
		x.remoteOpened.Add(opened)
		x.shardsPruned.Add(pruned)
		x.remoteConsumed.Add(consumed)
	}

	fail := func(err error) ([]proxrank.Source, func() []api.MissingShard, func(), *api.Error) {
		settle()
		return nil, nil, func() {}, api.Errorf(api.CodeInternal, "%v", err)
	}
	sources := make([]proxrank.Source, len(entries))
	for i, e := range entries {
		var src proxrank.Source
		if rr := e.Remote(); rr != nil {
			inputs := make([]relation.KeyedSource, len(rr.Groups))
			for g, shards := range rr.Groups {
				rs, err := shardrpc.OpenRemoteShards(ctx, e.Relation(), rr, shards, wireAccess(opts.Access), query, 0)
				if err != nil {
					return fail(err)
				}
				rs.SetPartial(partial)
				remotes = append(remotes, rs)
				inputs[g] = rs
			}
			merged, err := relation.NewMergedSource(e.Relation(), opts.Access, inputs)
			if err != nil {
				return fail(err)
			}
			src = merged
		} else {
			local, err := relation.OpenSource(e.Sharded(), opts.Access, query)
			if err != nil {
				return fail(err)
			}
			src = local
		}
		if x.wrapSource != nil {
			src = x.wrapSource(src)
		}
		sources[i] = src
	}
	return sources, missing, settle, nil
}
