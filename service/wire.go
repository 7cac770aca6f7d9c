package service

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	proxrank "repro"
	"repro/api"
)

// cacheKey is the canonical encoding of the normalized request (see
// api.Request.Canonical) suffixed with each resolved relation's catalog
// generation — so re-registering a name invalidates its entries — and
// shard count. Sharding does not change answers; the key carries it only
// as a defensive marker of the serving configuration. The generations
// align positionally with the request's relation list, which the
// canonical encoding already names.
func cacheKey(req *QueryRequest, entries []*Entry) string {
	canon := req.Canonical()
	var b strings.Builder
	b.Grow(len(canon) + 3 + 16*len(entries))
	b.WriteString(canon)
	b.WriteString("|g=")
	for _, e := range entries {
		b.WriteString(strconv.FormatUint(e.gen, 10))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(e.Shards()))
		b.WriteByte(',')
	}
	return b.String()
}

// wireCombination converts one engine combination into its wire form.
func wireCombination(c proxrank.Combination, entries []*Entry) ResultCombination {
	rc := ResultCombination{Score: c.Score, Tuples: make([]ResultTuple, len(c.Tuples))}
	for j, t := range c.Tuples {
		rc.Tuples[j] = ResultTuple{
			Relation: entries[j].Relation().Name,
			ID:       t.ID,
			Score:    t.Score,
			Vec:      []float64(t.Vec),
			Attrs:    t.Attrs,
		}
	}
	return rc
}

// buildResponse assembles the wire response around already-converted
// results. A run that abandoned shards is marked degraded, with the
// missing shard list and the certified count over the data that was
// actually reachable (zero when a DNF cap also cut the surviving-shard
// certification short).
func buildResponse(results []ResultCombination, threshold float64, dnf bool, stats proxrank.Stats, missing []api.MissingShard) *QueryResponse {
	out := &QueryResponse{
		Results: results,
		DNF:     dnf,
		Cost: QueryCost{
			SumDepths:           stats.SumDepths,
			Depths:              stats.Depths,
			Combinations:        stats.CombinationsFormed,
			BoundUpdates:        stats.BoundUpdates,
			QPSolves:            stats.QPSolves,
			ElapsedMicros:       stats.TotalTime.Microseconds(),
			SpilledCombinations: stats.SpilledCombinations,
			SpilledBytes:        stats.SpilledBytes,
		},
	}
	if !math.IsInf(threshold, 0) && !math.IsNaN(threshold) {
		out.Cost.Threshold = &threshold
	}
	if len(missing) > 0 {
		out.Degraded, out.ShardsMissing = true, missing
		if !dnf {
			out.ResultsCertified = len(results)
		}
	}
	return out
}

// CanonicalResponse renders a response for byte comparison with what may
// legitimately differ between two correct answers to one query removed:
// the engine's wall time and the cached marker. Everything else must
// match, float bits included — Go marshals float64 shortest-round-trip,
// so score bits survive the encoding. It is the one scrub behind every
// identity check outside bench/ (proxload -identity-check and the
// distributed, chaos and node fixtures).
func CanonicalResponse(resp *QueryResponse) string {
	c := *resp
	c.Cost.ElapsedMicros = 0
	c.Cached = false
	buf, err := json.Marshal(&c)
	if err != nil {
		// Every field is marshalable and the engine emits finite scores
		// only; a failure here is a bug, not an input.
		panic(fmt.Sprintf("service: canonical response: %v", err))
	}
	return string(buf)
}
