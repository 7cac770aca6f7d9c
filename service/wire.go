package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	proxrank "repro"
	"repro/api"
)

// flightKey is the canonical encoding of the normalized request (see
// api.Request.Canonical; alone, it is the cache's key) suffixed with each
// resolved relation's catalog generation — so a run that started before
// a catalog write is never joined after it — and shard count. Sharding
// does not change answers; the key carries it only as a defensive marker
// of the serving configuration. The generations align positionally with
// the request's relation list, which the canonical encoding names.
func flightKey(canon string, entries []*Entry) string {
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

// newestGen stamps an answer computed on entries with their largest
// generation. Generations are monotone across the catalog and Resolve
// reads them under one lock, so for one relation list equal stamps mean
// the same entries and a larger stamp the later catalog state.
func newestGen(entries []*Entry) uint64 {
	var g uint64
	for _, e := range entries {
		g = max(g, e.gen)
	}
	return g
}

// answer is a settled response and its two wire forms: the batch body
// marked cached, and the NDJSON result lines plus cached summary line.
// The first replay that needs a form encodes it — never the settle: a
// cold key is not asked twice and pays neither the encode nor the bytes.
type answer struct {
	resp  *api.Response
	once  [2]sync.Once // batch, stream
	forms [2][]byte
}

// form returns the batch or stream wire form, built once by the encoders
// the live path uses (built counts builds). A degraded response has none
// and is replayed the ordinary way: it is never cached, and its fields
// sort after the trace, which a traced batch caller appends.
func (a *answer) form(stream bool, built *atomic.Int64) []byte {
	if a.resp.Degraded {
		return nil
	}
	i := 0
	if stream {
		i = 1
	}
	a.once[i].Do(func() {
		built.Add(1)
		if !stream {
			hit := *a.resp
			hit.Cached = true
			a.forms[i], _ = encodeJSON(&hit)
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if replayEvents(a.resp, func(ev api.ResultEvent) error { return enc.Encode(ev) }) == nil {
			a.forms[i] = bytes.Clone(buf.Bytes()) // without the buffer's growth slack
		}
	})
	return a.forms[i]
}

// replayEvents emits a settled response as the events of its stream: one
// result event per combination, then the summary marked cached.
func replayEvents(resp *api.Response, emit func(api.ResultEvent) error) error {
	for i := range resp.Results {
		if err := emit(api.ResultEvent{Type: api.EventResult, Rank: i + 1, Result: &resp.Results[i]}); err != nil {
			return err
		}
	}
	return emit(api.ResultEvent{Type: api.EventSummary, Summary: summaryOf(resp, true)})
}

// encodeJSON is json.Marshal plus the newline every body ends with,
// without the copy appending one to Marshal's exact-sized slice costs.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// wireCombination converts one engine combination into its wire form.
func wireCombination(c proxrank.Combination, entries []*Entry) api.Combination {
	rc := api.Combination{Score: c.Score, Tuples: make([]api.Tuple, len(c.Tuples))}
	for j, t := range c.Tuples {
		rc.Tuples[j] = api.Tuple{
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
func buildResponse(results []api.Combination, threshold float64, dnf bool, stats proxrank.Stats, missing []api.MissingShard) *api.Response {
	out := &api.Response{
		Results: results,
		DNF:     dnf,
		Cost: api.Cost{
			SumDepths:     stats.SumDepths,
			Depths:        stats.Depths,
			Combinations:  stats.CombinationsFormed,
			BoundUpdates:  stats.BoundUpdates,
			QPSolves:      stats.QPSolves,
			ElapsedMicros: stats.TotalTime.Microseconds(),
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
func CanonicalResponse(resp *api.Response) string {
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
