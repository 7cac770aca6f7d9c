package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	proxrank "repro"
	"repro/api"
	"repro/service"
)

// canonicalResponse renders a response for byte comparison with the
// fields stripped that legitimately differ between two correct answers to
// one query: wall-clock cost, the cached marker, the trace, and the spill
// tallies (a spill run and its prune twin differ there by design). Go
// marshals float64 shortest-round-trip, so score bits survive.
func canonicalResponse(resp *api.Response) string {
	c := *resp
	c.Cached = false
	c.Trace = nil
	c.Cost.ElapsedMicros = 0
	c.Cost.SpilledCombinations = 0
	c.Cost.SpilledBytes = 0
	buf, err := json.Marshal(&c)
	if err != nil {
		// api.Response holds only marshalable fields; finite floats are
		// guaranteed by the server's own encode having succeeded.
		panic(fmt.Sprintf("canonicalResponse: %v", err))
	}
	return string(buf)
}

// decodeRaw turns the bytes kept from the wire back into a response: a
// batch body directly, an NDJSON stream through api.CollectStream.
func decodeRaw(raw []byte, stream bool) (*api.Response, error) {
	if !stream {
		var resp api.Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	var events []api.ResultEvent
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev api.ResultEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	resp, aerr := api.CollectStream(events)
	if aerr != nil {
		return nil, aerr
	}
	return resp, nil
}

// oracleTally is what the post-run oracles covered.
type oracleTally struct {
	compared   int // sampled responses compared with the twin
	cachedSeen int // of those, answers the server served from its cache
	pairs      int // spill/prune pairs compared byte for byte
}

// verifySamples compares every sampled response with the twin executor's
// answer to the same request, and a sampled spill/prune pair with each
// other. A mismatch turns the request's outcome into a wrong answer.
func verifySamples(twin *service.Executor, reqs []request, outcomes []outcome, keepEvery int) oracleTally {
	var tally oracleTally
	canon := make(map[int]string)
	for i := range outcomes {
		o := &outcomes[i]
		if o.fail != "" || o.raw == nil {
			continue
		}
		got, err := decodeRaw(o.raw, reqs[i].stream)
		if err != nil {
			o.fail, o.detail = failWrong, fmt.Sprintf("sampled response does not decode: %v", err)
			continue
		}
		canon[i] = canonicalResponse(got)
		if i%keepEvery != 0 {
			continue // kept only as the twin of a sampled request
		}
		req := reqs[i].req
		req.Trace = false
		want, err := twin.Execute(context.Background(), &req)
		if err != nil {
			o.fail, o.detail = failWrong, fmt.Sprintf("twin oracle failed: %v", err)
			continue
		}
		tally.compared++
		if got.Cached {
			tally.cachedSeen++
		}
		if w := canonicalResponse(want); w != canon[i] {
			o.fail, o.detail = failWrong, fmt.Sprintf("differs from the single-node twin\n  twin: %.200s\n  got:  %.200s", w, canon[i])
		}
	}
	for i, c := range canon {
		j := reqs[i].twin
		if j < 0 || i%keepEvery != 0 {
			continue
		}
		other, ok := canon[j]
		if !ok {
			continue // the twin request itself failed; already counted
		}
		tally.pairs++
		if c != other {
			o := &outcomes[i]
			o.fail, o.detail = failWrong, fmt.Sprintf("request %d (%s) and its twin %d (%s) differ", i, reqs[i].class, j, reqs[j].class)
		}
	}
	return tally
}

// preflightTuples is the relation size of the -check pre-flight: small
// enough that the exhaustive cross product is instant.
const preflightTuples = 200

// preflight runs every class of the workload at preflightTuples per
// relation through the real topology over HTTP and compares each answer
// with proxrank.NaiveTopK, the exhaustive baseline that shares no code
// with the engine's bounds, access paths or merge.
func preflight(w *workload, seed int64, dir string) error {
	w = w.sized(preflightTuples)
	in, err := prepareInputs(w, dir)
	if err != nil {
		return err
	}
	topo, err := buildTopology(w, in)
	if err != nil {
		return err
	}
	defer topo.close()
	n := 2 * w.period
	if n < 20 {
		n = 20
	}
	reqs, err := w.requests(seed, n, false)
	if err != nil {
		return err
	}
	for i := range reqs {
		reqs[i].replace = false
	}
	res := drive(topo, reqs, in.rels, 1, 1, runDeadline(10))
	for i := range res.outcomes {
		o := &res.outcomes[i]
		if o.fail != "" {
			return fmt.Errorf("pre-flight request %d (%s): %s: %s", i, reqs[i].class, o.fail, o.detail)
		}
		got, err := decodeRaw(o.raw, reqs[i].stream)
		if err != nil {
			return fmt.Errorf("pre-flight request %d: %w", i, err)
		}
		if err := compareNaive(in.rels, &reqs[i].req, got); err != nil {
			return fmt.Errorf("pre-flight request %d (%s): %w", i, reqs[i].class, err)
		}
	}
	return nil
}

// compareNaive checks got against the exhaustive top-K: same length, the
// same score at every rank (bit for bit — both sides evaluate the same
// aggregation function), and the same tuple IDs wherever the score is not
// tied with a neighbour.
func compareNaive(rels []*proxrank.Relation, req *api.Request, got *api.Response) error {
	norm := *req
	query, opts, err := proxrank.OptionsFromRequest(&norm)
	if err != nil {
		return err
	}
	want, err := proxrank.NaiveTopK(query, rels, opts)
	if err != nil {
		return err
	}
	if len(want) != len(got.Results) {
		return fmt.Errorf("%d results, naive has %d", len(got.Results), len(want))
	}
	for r := range want {
		if math.Float64bits(want[r].Score) != math.Float64bits(got.Results[r].Score) {
			return fmt.Errorf("rank %d: score %v, naive has %v", r+1, got.Results[r].Score, want[r].Score)
		}
		tied := (r > 0 && want[r-1].Score == want[r].Score) || (r+1 < len(want) && want[r+1].Score == want[r].Score)
		if tied {
			continue
		}
		for j, t := range want[r].Tuples {
			if id := got.Results[r].Tuples[j].ID; id != t.ID {
				return fmt.Errorf("rank %d: tuple %d is %q, naive has %q", r+1, j, id, t.ID)
			}
		}
	}
	return nil
}
