// Package service turns the proximity rank join library into a
// multi-tenant query-serving subsystem. The library answers one query at
// a time; this package is the layer that answers many at once.
//
// Its pieces, bottom to top:
//
//   - Catalog: named relations with R-tree and score indexes precomputed
//     at registration and shared read-only across queries. Relations may
//     be sharded (per-shard indexes built in parallel; per-query streams
//     k-way-merged back into the canonical order, so sharding never
//     changes answers). Re-registering a name bumps its generation,
//     after which no answer cached on the old data is served again.
//
//   - Executor: validation and defaulting through the api package, a
//     bounded worker pool with per-query deadlines, an LRU result cache
//     of answers and the wire bytes their replays copy, keyed by the
//     canonical request encoding and stamped with catalog generations,
//     and a single-flight group so identical concurrent misses run the
//     engine once. Every query takes one path: whoever leads a flight
//     call starts its engine, which runs to completion at engine speed —
//     publishing events into a per-run log of at most K + 1 events
//     (internal/broker) and releasing its worker slot when enumeration
//     finishes — and every caller is a consumer of that call. A batch
//     caller (Execute) waits for the settled response; a stream caller
//     (ExecuteStream) drains the log at its own pace, a follower
//     arriving mid-run replaying the certified prefix before tailing
//     live events. Publishing never waits on a consumer, so however far
//     one falls behind it delays nobody and still receives every event.
//
//   - Server: the HTTP JSON front end — batch and NDJSON streaming query
//     endpoints, runtime relation management, health and stats. See the
//     Server type for the route table and docs/API.md for the full wire
//     reference.
//
//   - Node (Open): the assembler. Given a loaded catalog and a
//     NodeConfig it stands up one serving process — executor, Server
//     and, by role, the shard RPC server and the coordinator's fleet —
//     in the one legal order, and Close takes it down in the reverse
//     one. proxserve, proxload -selfserve and every distributed test
//     fixture start a node this way and no other.
//
// ARCHITECTURE.md at the repository root walks a request through these
// layers end to end.
package service
