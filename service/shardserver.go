package service

import (
	"fmt"
	"strconv"
	"strings"

	proxrank "repro"
	"repro/api"
	"repro/internal/relation"
	"repro/internal/shardrpc"
)

// Ownership selects which shards of every catalog relation a shard
// server serves: with Replicas r (default 1), server Index of Count
// peers owns shard s exactly when Index is one of the r consecutive
// peers starting at s % Count — so every shard has r owners and the
// coordinator can fail over or hedge between them. Every peer loads the
// same data with the same -shards, so the global
// partition (and every tuple's parent ordinal) is agreed on by
// construction; ownership only decides who answers for each piece. The
// zero value (Count <= 1) owns everything.
type Ownership struct {
	Index int
	Count int
	// Replicas is how many consecutive peers serve each shard; 0 and 1
	// both mean unreplicated, Count means every peer serves everything.
	Replicas int
}

// ParseOwnership reads the "i/n" (unreplicated) or "i/n/r" (r-way
// replicated) form of the -own flag.
func ParseOwnership(s string) (Ownership, error) {
	if s == "" {
		return Ownership{}, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 2 && len(parts) != 3 {
		return Ownership{}, fmt.Errorf("ownership %q: want the form i/n or i/n/r (e.g. 0/3 or 0/3/2)", s)
	}
	nums := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return Ownership{}, fmt.Errorf("ownership %q: want the form i/n or i/n/r (e.g. 0/3 or 0/3/2)", s)
		}
		nums[i] = v
	}
	o := Ownership{Index: nums[0], Count: nums[1], Replicas: 1}
	if len(nums) == 3 {
		o.Replicas = nums[2]
	}
	if o.Count < 1 || o.Index < 0 || o.Index >= o.Count {
		return Ownership{}, fmt.Errorf("ownership %q: want 0 <= i < n", s)
	}
	if o.Replicas < 1 || o.Replicas > o.Count {
		return Ownership{}, fmt.Errorf("ownership %q: want 1 <= r <= n", s)
	}
	return o, nil
}

// Owns reports whether shard s belongs to this server.
func (o Ownership) Owns(s int) bool {
	if o.Count <= 1 {
		return true
	}
	r := o.Replicas
	if r < 1 {
		r = 1
	}
	// The shard's primary is peer s % Count; replicas are the next r-1
	// peers in ring order.
	d := (o.Index - s%o.Count + o.Count) % o.Count
	return d < r
}

// ShardBackend serves a catalog's locally-loaded shards over shardrpc. It
// is the service half of a shard server: shardrpc provides the
// transport, this type the semantics.
type ShardBackend struct {
	cat *Catalog
	own Ownership
	// name is the identity advertised in hello (the RPC listen address).
	name string
}

// NewShardBackend builds a backend over cat serving the shards selected
// by own. Call SetName once the RPC listener's address is known. The
// executor parameter is unused since the query verb went; it stays
// because bench/ compiles against this signature.
func NewShardBackend(cat *Catalog, _ *Executor, own Ownership) *ShardBackend {
	return &ShardBackend{cat: cat, own: own}
}

// SetName records the identity advertised in hello responses.
func (b *ShardBackend) SetName(name string) { b.name = name }

// Hello implements shardrpc.Backend: every local relation's partition
// layout, restricted to the shards this server owns.
func (b *ShardBackend) Hello() shardrpc.HelloInfo {
	h := shardrpc.HelloInfo{Server: b.name}
	for _, name := range b.cat.Names() {
		e, err := b.cat.Get(name)
		if err != nil || e.IsRemote() {
			continue
		}
		rel := e.Relation()
		ri := shardrpc.RelationInfo{
			Name:     name,
			MaxScore: rel.MaxScore,
			Dim:      rel.Dim(),
			Tuples:   rel.Len(),
			Shards:   e.Shards(),
		}
		for s := 0; s < e.Shards(); s++ {
			if b.own.Owns(s) {
				ri.Owned = append(ri.Owned, shardrpc.OwnedShard{
					Index:  s,
					Bounds: e.Sharded().ShardBounds(s),
				})
			}
		}
		h.Relations = append(h.Relations, ri)
	}
	return h
}

// OpenShards implements shardrpc.Backend: the canonical keyed stream of
// a set of owned shards (see relation.Sharded.OpenShardSet).
func (b *ShardBackend) OpenShards(relName string, shards []int, access string, query []float64) (relation.KeyedSource, error) {
	e, err := b.cat.Get(relName)
	if err != nil {
		return nil, err
	}
	if e.IsRemote() {
		return nil, api.Errorf(api.CodeBadRequest, "relation %q is remote here; shard servers serve local data only", relName)
	}
	for _, shard := range shards {
		if shard < 0 || shard >= e.Shards() {
			return nil, api.Errorf(api.CodeNotFound, "relation %q has no shard %d", relName, shard)
		}
		if !b.own.Owns(shard) {
			return nil, api.Errorf(api.CodeNotFound, "shard %d of relation %q is not served here", shard, relName)
		}
	}
	var kind proxrank.AccessKind
	switch access {
	case api.AccessScore:
		kind = proxrank.ScoreAccess
	case api.AccessDistance:
		kind = proxrank.DistanceAccess
		if len(query) != e.Relation().Dim() {
			return nil, api.Errorf(api.CodeBadRequest, "relation %q has dim %d, query has dim %d", relName, e.Relation().Dim(), len(query))
		}
	default:
		return nil, api.Errorf(api.CodeBadRequest, "unknown access kind %q", access)
	}
	src, err := e.Sharded().OpenShardSet(shards, kind, query)
	if err != nil {
		return nil, api.Errorf(api.CodeBadRequest, "open shards %v of %q: %v", shards, relName, err)
	}
	return src, nil
}

var _ shardrpc.Backend = (*ShardBackend)(nil)
