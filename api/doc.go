// Package api defines the transport-neutral, versioned request/response
// model of the proximity rank join service: every front end (HTTP JSON,
// the streaming NDJSON endpoint, future gRPC or remote-shard transports)
// and the library's Query session speak these types, so validation,
// defaulting, and the canonical cache-key encoding live in exactly one
// place.
//
// The package is pure data: it depends on nothing but the standard
// library, and in particular not on the engine. Translation into engine
// options happens in the facade (proxrank.OptionsFromRequest).
//
// The life of a Request: a caller fills the required fields (Query,
// Relations, K) and whatever options it cares about; Normalize validates
// everything, folds aliases (hrjn → cbrr, id → identity, case variants)
// and fills defaults, so two semantically equal requests become
// structurally equal; Canonical then encodes exactly the answer-affecting
// fields into the deterministic string that servers use as their cache
// and single-flight key. The fields that never change the answer
// (BufferPolicy, TimeoutMillis, NoCache, Trace, Partial) are validated
// but excluded from the encoding, so requests differing only in how they
// want the answer computed or delivered share one cache entry and
// coalesce into one engine run.
//
// Streaming consumers receive the same answer as a sequence of
// ResultEvent values — K result events in rank order, then one summary —
// and CollectStream folds a finished sequence back into a Response,
// which is how equivalence between the batch and streaming surfaces is
// stated (and tested).
//
// docs/API.md at the repository root documents the HTTP wire form of
// every field, with validation rules and verified examples.
package api
