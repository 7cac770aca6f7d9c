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
//     beside their parent ordinals, on the heap (Partition: heads, one
//     vector slab, int32 ordinals, attributes apart) or over a mapped
//     file (AssembleSharded, internal/relfile). A plain relation reads
//     as one shard in its own storage order. A streamed tuple's Vec may
//     alias heap columns or a shard R-tree's leaf slab, and is
//     read-only; on a relfile it is a heap copy, never the mapping.
//   - OpenSource, shard.open (input.go, columnar.go): OpenSource is the
//     one way to open a stream, and a shard's open the one place an
//     access path is chosen, from the input and its dimension, never
//     from an option — a cursor over the columns for score access; for
//     distance access an incremental traversal of the R-trees a Sharded
//     owns (from Partition or a relfile), and the scan (scan.go) for a
//     plain Relation and for every shard of dimension 8 and up that holds
//     at most autoShardTarget tuples: one pass keys every tuple, then
//     rounds of growing size sort the keys up to a sampled bound. An index built once over a whole
//     relation is a one-shard Partition.
//   - Partition, Sharded, OpenShardSet, MergedSource: grid (median-cut)
//     partitioning, parallel per-shard builds, and the ordinal-aware
//     merge that restores the canonical order across shard streams.
//     Every stream over several shards — a local relation's, a shard
//     server's set — is OpenShardSet's merge, each shard latent at its
//     key bound until the merge reaches it.
//   - CSV reading for data import (ReadCSV and friends).
package relation
