package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/shardrpc"
)

// Entry is one catalog slot: the relation partitioned into one or more
// shards, each with its indexes precomputed at registration time so that
// queries share them read-only — per-shard R-trees for distance access,
// per-shard score orders for score access — and a generation number that
// stamps cached answers, so none outlives a re-registration in service. A relation
// registered without a shard count holds exactly one shard, which the
// query path streams with zero merge overhead.
type Entry struct {
	sharded  *proxrank.ShardedRelation
	gen      uint64
	loadedAt time.Time
	// Remote entries (coordinator mode) carry no local tuples: stub is a
	// metadata-only relation and remote maps shards onto fleet peers.
	// Exactly one of sharded and remote is set.
	stub   *proxrank.Relation
	remote *shardrpc.RemoteRelation
}

// Relation returns the registered (parent) relation — a metadata-only
// stub for remote entries.
func (e *Entry) Relation() *proxrank.Relation {
	if e.remote != nil {
		return e.stub
	}
	return e.sharded.Relation()
}

// Sharded returns the partitioned form queries stream from, or nil for a
// remote entry (its shards live on other servers).
func (e *Entry) Sharded() *proxrank.ShardedRelation { return e.sharded }

// Remote returns the remote shard map, or nil for a local entry.
func (e *Entry) Remote() *shardrpc.RemoteRelation { return e.remote }

// IsRemote reports whether the entry's shards live on remote peers.
func (e *Entry) IsRemote() bool { return e.remote != nil }

// Shards returns the entry's shard count.
func (e *Entry) Shards() int {
	if e.remote != nil {
		return e.remote.Shards
	}
	return e.sharded.NumShards()
}

// Generation returns the registration generation (monotone across the
// catalog; a name re-registered after eviction gets a fresh generation).
func (e *Entry) Generation() uint64 { return e.gen }

// FileBacked reports whether the entry's tuples live in a memory-mapped
// relfile rather than on the Go heap.
func (e *Entry) FileBacked() bool {
	return e.sharded != nil && e.sharded.FileBacked()
}

// RelationInfo is the catalog metadata served by GET /v1/relations.
type RelationInfo struct {
	Name     string    `json:"name"`
	Tuples   int       `json:"tuples"`
	Dim      int       `json:"dim"`
	MaxScore float64   `json:"maxScore"`
	Shards   int       `json:"shards"`
	LoadedAt time.Time `json:"loadedAt"`
	// Remote marks a coordinator entry whose shards live on peers;
	// Owners then maps each peer address to the shard indices it serves.
	Remote bool             `json:"remote,omitempty"`
	Owners map[string][]int `json:"owners,omitempty"`
	// FileBacked marks an entry served from a memory-mapped relfile.
	FileBacked bool `json:"fileBacked,omitempty"`
}

// Catalog is a concurrency-safe registry of named relations. Registration
// precomputes the per-relation indexes once; lookups hand out immutable
// entries that any number of in-flight queries may share.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	nextGen uint64
	// building counts registrations currently partitioning and building
	// indexes — the readiness probe reports not-ready while it is
	// non-zero, so a server bulk-loading at startup holds traffic off
	// until its catalog is queryable.
	building atomic.Int64
	// buildObserver, when set, receives every registration's index-build
	// cost: shard count and the wall time spent partitioning and
	// building indexes. Wired to the metrics registry by NewExecutor.
	buildObserver func(shards int, d time.Duration)
	// relfileOpens counts successful LoadRelFile admissions; exported to
	// the metrics registry as relfile_open_total.
	relfileOpens atomic.Int64
}

// SetBuildObserver installs fn to observe index-build timings of later
// registrations. Call before the catalog is shared; a nil fn disables.
func (c *Catalog) SetBuildObserver(fn func(shards int, d time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buildObserver = fn
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: make(map[string]*Entry)}
}

// Register names a relation and precomputes its indexes as a single
// shard. It fails if the name is empty, already taken (evict first to
// replace a relation), or differs from rel.Name — query responses and
// errors always cite rel.Name, so a diverging catalog name would surface
// names clients cannot resolve back.
func (c *Catalog) Register(name string, rel *proxrank.Relation) error {
	return c.RegisterSharded(name, rel, 1)
}

// RegisterSharded is Register with a shard count: the relation is
// partitioned into grid shards (proxrank.NewShardedRelation) and every
// shard's indexes are built in parallel, all outside the catalog lock.
// Queries over the entry stream a per-shard merge that answers
// byte-identically to a single-shard registration. A shard count of 0
// asks admission to pick one from the relation's size
// (proxrank.AutoShardCount). Any PartitionStrategy argument is ignored.
func (c *Catalog) RegisterSharded(name string, rel *proxrank.Relation, shards int, _ ...proxrank.PartitionStrategy) error {
	return c.admit(name, rel, shards, false)
}

// Replace is RegisterSharded for a name that may already be taken: the
// new relation is built outside the lock and atomically swapped in with
// a fresh generation, so in-flight queries finish on the old entry while
// new queries (and cache keys) see the new one. With shards == 0 the
// shard count is re-derived from the new relation's size — a relation
// that grew since its last registration is re-sharded on the way in.
// Any PartitionStrategy argument is ignored.
func (c *Catalog) Replace(name string, rel *proxrank.Relation, shards int, _ ...proxrank.PartitionStrategy) error {
	return c.admit(name, rel, shards, true)
}

func (c *Catalog) admit(name string, rel *proxrank.Relation, shards int, replace bool) error {
	if name == "" {
		return api.Errorf(api.CodeBadRequest, "relation name must not be empty")
	}
	if rel == nil {
		return api.Errorf(api.CodeBadRequest, "relation %q: nil relation", name)
	}
	if rel.Name != name {
		return api.Errorf(api.CodeBadRequest, "catalog name %q differs from relation name %q", name, rel.Name)
	}
	if shards == 0 {
		shards = proxrank.AutoShardCount(rel.Len())
	}
	// Cheap existence pre-check so a duplicate registration doesn't pay
	// for index construction; the locked re-check below settles races.
	if !replace {
		c.mu.RLock()
		_, taken := c.entries[name]
		c.mu.RUnlock()
		if taken {
			return api.Errorf(api.CodeConflict, "relation %q is already registered", name)
		}
	}
	// Partitioning and index construction are the expensive part; do them
	// outside the lock so concurrent queries are not stalled behind bulk
	// loads.
	c.building.Add(1)
	defer c.building.Add(-1)
	buildStart := time.Now()
	sharded, err := proxrank.NewShardedRelation(rel, shards)
	if err != nil {
		return api.Errorf(api.CodeBadRequest, "relation %q: %v", name, err)
	}
	c.observeBuild(sharded.NumShards(), time.Since(buildStart))
	return c.install(name, &Entry{sharded: sharded, loadedAt: time.Now()}, replace)
}

// observeBuild reports one index build to the registered observer.
func (c *Catalog) observeBuild(shards int, d time.Duration) {
	c.mu.RLock()
	observe := c.buildObserver
	c.mu.RUnlock()
	if observe != nil {
		observe(shards, d)
	}
}

// install links a fully built entry into the catalog under a fresh
// generation. Without replace it refuses a taken name (settling the race
// two concurrent registrations of one name can reach).
func (c *Catalog) install(name string, e *Entry, replace bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok && !replace {
		return api.Errorf(api.CodeConflict, "relation %q is already registered", name)
	}
	c.nextGen++
	e.gen = c.nextGen
	c.entries[name] = e
	return nil
}

// RegisterRemote names a relation whose shards live on fleet peers
// (coordinator mode). The entry carries only metadata — a stub relation
// built from what the peers agreed on during discovery — and the shard
// ownership map; the query path resolves each of its owner groups to a
// RemoteSource, so the groups must cover the shards, as Discover builds
// them.
func (c *Catalog) RegisterRemote(name string, rr *shardrpc.RemoteRelation) error {
	if name == "" {
		return api.Errorf(api.CodeBadRequest, "relation name must not be empty")
	}
	if rr == nil {
		return api.Errorf(api.CodeBadRequest, "relation %q: nil remote relation", name)
	}
	if rr.Name != name {
		return api.Errorf(api.CodeBadRequest, "catalog name %q differs from relation name %q", name, rr.Name)
	}
	stub, err := rr.Stub()
	if err != nil {
		return api.Errorf(api.CodeBadRequest, "relation %q: %v", name, err)
	}
	grouped := 0
	for _, g := range rr.Groups {
		grouped += len(g)
	}
	if grouped != rr.Shards {
		return api.Errorf(api.CodeBadRequest, "relation %q: owner groups name %d of its %d shards", name, grouped, rr.Shards)
	}
	return c.install(name, &Entry{stub: stub, remote: rr, loadedAt: time.Now()}, false)
}

// LoadCSVFile reads a relation from a CSV file and registers it under
// name as a single shard. Pass maxScore 0 to infer σ_max from the data.
func (c *Catalog) LoadCSVFile(name, path string, maxScore float64) error {
	return c.LoadCSVFileSharded(name, path, maxScore, 1)
}

// LoadCSVFileSharded reads a relation from a CSV file and registers it
// partitioned into shards.
func (c *Catalog) LoadCSVFileSharded(name, path string, maxScore float64, shards int) error {
	rel, err := proxrank.LoadRelationCSV(path, name, maxScore)
	if err != nil {
		return fmt.Errorf("catalog: load %q: %w", name, err)
	}
	return c.RegisterSharded(name, rel, shards)
}

// LoadRelFile memory-maps a relfile-format relation (.prox, written by
// proxgen -format relfile) and registers it under name. No tuples are
// materialized: shard layout, indexes' inputs, and bounding metadata are
// served straight from the mapping, so admission is O(validation) rather
// than O(sort), and resident memory stays flat however large the file
// is. Eviction drops the catalog slot; queries that resolved the entry
// keep its mapping while they run, and it is unmapped once nothing
// reaches the entry. Answers never alias it: their tuples own their
// bytes.
func (c *Catalog) LoadRelFile(name, path string) error {
	if name == "" {
		return api.Errorf(api.CodeBadRequest, "relation name must not be empty")
	}
	c.mu.RLock()
	_, taken := c.entries[name]
	c.mu.RUnlock()
	if taken {
		return api.Errorf(api.CodeConflict, "relation %q is already registered", name)
	}
	c.building.Add(1)
	defer c.building.Add(-1)
	buildStart := time.Now()
	sharded, err := proxrank.LoadRelFile(path, name)
	if err != nil {
		return api.Errorf(api.CodeBadRequest, "relation %q: %v", name, err)
	}
	c.relfileOpens.Add(1)
	c.observeBuild(sharded.NumShards(), time.Since(buildStart))
	return c.install(name, &Entry{sharded: sharded, loadedAt: time.Now()}, false)
}

// RelFileOpens returns how many relfile mappings this catalog has opened
// (the relfile_open_total metric).
func (c *Catalog) RelFileOpens() int64 { return c.relfileOpens.Load() }

// Get returns the entry for name, or an api.CodeNotFound error.
func (c *Catalog) Get(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "relation %q is not registered", name)
	}
	return e, nil
}

// Resolve looks up every named relation, preserving order.
func (c *Catalog) Resolve(names []string) ([]*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Entry, len(names))
	for i, name := range names {
		e, ok := c.entries[name]
		if !ok {
			return nil, api.Errorf(api.CodeNotFound, "relation %q is not registered", name)
		}
		out[i] = e
	}
	return out, nil
}

// Evict removes a relation; it reports whether the name was registered.
// In-flight queries holding the entry finish against it unaffected.
func (c *Catalog) Evict(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[name]
	delete(c.entries, name)
	return ok
}

// Building reports how many registrations are mid index build right
// now; /v1/readyz answers not-ready while it is positive.
func (c *Catalog) Building() int64 { return c.building.Load() }

// Len returns the number of registered relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Names returns the registered names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for name := range c.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalShards returns the shard count summed over every registered
// relation.
func (c *Catalog) TotalShards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, e := range c.entries {
		total += e.Shards()
	}
	return total
}

// info builds the wire metadata of one entry.
func info(name string, e *Entry) RelationInfo {
	rel := e.Relation()
	ri := RelationInfo{
		Name:       name,
		Tuples:     rel.Len(),
		Dim:        rel.Dim(),
		MaxScore:   rel.MaxScore,
		Shards:     e.Shards(),
		LoadedAt:   e.loadedAt,
		FileBacked: e.FileBacked(),
	}
	if rr := e.remote; rr != nil {
		ri.Remote = true
		ri.Owners = make(map[string][]int)
		for s := 0; s < rr.Shards; s++ {
			for _, p := range rr.Owners[s] {
				ri.Owners[p.Addr] = append(ri.Owners[p.Addr], s)
			}
		}
	}
	return ri
}

// Info returns the metadata of one registered relation.
func (c *Catalog) Info(name string) (RelationInfo, error) {
	e, err := c.Get(name)
	if err != nil {
		return RelationInfo{}, err
	}
	return info(name, e), nil
}

// Infos returns the metadata of every registered relation, sorted by name.
func (c *Catalog) Infos() []RelationInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]RelationInfo, 0, len(c.entries))
	for name, e := range c.entries {
		out = append(out, info(name, e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
