// Package relation defines the tuple and relation model of proximity rank
// join and the sequential access paths over them: distance-based access
// (tuples in increasing distance from a query vector) and score-based
// access (tuples in decreasing score), per Definition 2.1 of the paper.
//
// Sources deliberately hide the relation contents behind a sequential
// Next() so that algorithms can only learn what they have paid for — the
// sumDepths cost model of the paper measures exactly these calls. Every
// access path yields one canonical tuple order per (access kind, query):
// ties are broken deterministically, so any two sources over the same
// data — plain, index-backed, or a k-way merge of shard streams — are
// byte-identical. That invariant is what lets the serving layer shard
// relations (Partition, Sharded, MergedSource) and cache answers without
// the storage layout ever changing a result.
//
// The pieces:
//
//   - Tuple, Relation: the data model; New validates scores against the
//     relation's σ_max and fixes the canonical base order.
//   - Columns: the one shard storage — tuples in canonical score order
//     beside their parent ordinals, on the heap (Partition) or over a
//     mapped file (AssembleSharded, internal/relfile). A plain relation
//     reads as one shard in its own storage order.
//   - OpenSource, openShards (input.go, columnar.go): OpenSource is the
//     one way to open a stream, and openShards the one place an access
//     path is chosen, from the input, never from an option — a cursor
//     over the columns for score access; for distance access an
//     incremental traversal of the R-trees a Sharded owns (from Partition
//     or a relfile), and a full sort for a plain Relation. An index built
//     once over a whole relation is a one-shard Partition.
//   - Partition, Sharded, MergedSource: hash or grid partitioning,
//     parallel per-shard builds, and the ordinal-aware merge that
//     restores the canonical order across shard streams.
//   - CSV reading for data import (ReadCSV and friends).
package relation
