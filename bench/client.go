package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	proxrank "repro"
	"repro/api"
	"repro/internal/shardrpc"
	"repro/service"
)

// Failure buckets beside the api.Error codes a server can answer with.
const (
	failTransport = "transport"    // no HTTP response, or the body broke off
	failWrong     = "wrong_answer" // 200, but the answer fails a check
	failUnissued  = "unissued"     // never sent: the run hit its deadline
)

// blocks is how many equal slices of the request list get their own
// clock readings. Throughput and CPU cost are reported as the median over
// the slices, so a burst of interference that covers a few of them (the
// reference host's vCPUs switch between two speeds some 15% apart, a few
// seconds at a time) does not move the run's figure.
const blocks = 12

// sampleEvery is the stride of the responses kept as bytes for the twin
// oracle.
const sampleEvery = 50

// outcome is what the client observed for one request.
type outcome struct {
	issued  bool
	start   time.Time
	latency time.Duration // send → last byte
	ttfe    time.Duration // stream only: send → first result line
	// fail is "" for a correct answer, else the failure bucket; detail
	// says what was wrong.
	fail   string
	detail string

	sumDepths int
	cached    bool
	phases    []api.TracePhase // traced runs only
	// raw holds the response bytes of sampled requests: the batch body, or
	// the stream's NDJSON lines.
	raw []byte
}

// driveResult is one closed-loop pass over a request list.
type driveResult struct {
	outcomes []outcome
	wall     time.Duration
	cpu      time.Duration // process user+sys over the timed window
	rssPeak  int64         // bytes, sampled every 100 ms
	replaces []time.Duration
	// marks are (wall, cpu) readings: one before the first request, one as
	// the cursor crosses each block boundary, one when the last request
	// completed — blocks+1 readings around blocks slices.
	marks  []mark
	before service.StatsSnapshot
	after  service.StatsSnapshot
	peers  peerDelta
}

// mark is one reading of the clocks at a block boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// peerDelta is the change in the fleet's per-peer RPC counters.
type peerDelta struct{ retries, hedges int64 }

func peerTotals(f *shardrpc.Fleet) peerDelta {
	var d peerDelta
	if f == nil {
		return d
	}
	for _, p := range f.Peers() {
		d.retries += p.Retries.Load()
		d.hedges += p.Hedges.Load()
	}
	return d
}

// slimCost and friends decode only what the per-response checks read, so
// the client's share of the process's CPU stays small and constant.
type slimCost struct {
	SumDepths int `json:"sumDepths"`
}

type slimTrace struct {
	Phases []api.TracePhase `json:"phases"`
}

type slimScore struct {
	Score float64 `json:"score"`
}

type slimResponse struct {
	Results  []slimScore `json:"results"`
	DNF      bool        `json:"dnf"`
	Degraded bool        `json:"degraded"`
	Cached   bool        `json:"cached"`
	Cost     slimCost    `json:"cost"`
	Trace    *slimTrace  `json:"trace"`
	Error    *api.Error  `json:"error"`
}

type slimSummary struct {
	Count    int      `json:"count"`
	DNF      bool     `json:"dnf"`
	Degraded bool     `json:"degraded"`
	Cached   bool     `json:"cached"`
	Cost     slimCost `json:"cost"`
}

type slimEvent struct {
	Type    api.EventType `json:"type"`
	Result  *slimScore    `json:"result"`
	Summary *slimSummary  `json:"summary"`
	Error   *api.Error    `json:"error"`
	Trace   *slimTrace    `json:"trace"`
}

// maxStreamLine bounds one NDJSON line; a traced stream's trace event can
// carry thousands of pull records.
const maxStreamLine = 8 << 20

// clientState is one closed-loop client's reusable buffers.
type clientState struct {
	http *http.Client
	body bytes.Buffer
	line []byte
}

// issue sends one request and fills o. It never returns an error: every
// failure is an outcome.
func (c *clientState) issue(ctx context.Context, base string, r *request, keep bool, o *outcome) {
	path := "/v1/query"
	if r.stream {
		path = "/v1/query/stream"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(r.body))
	if err != nil {
		o.fail, o.detail = failTransport, err.Error()
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	o.issued = true
	o.start = time.Now()
	resp, err := c.http.Do(hreq)
	if err != nil {
		o.latency = time.Since(o.start)
		o.fail, o.detail = failTransport, err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !r.stream {
		c.body.Reset()
		_, err = c.body.ReadFrom(resp.Body)
		o.latency = time.Since(o.start)
		if err != nil {
			o.fail, o.detail = failTransport, err.Error()
			return
		}
		c.checkBatch(resp.StatusCode, r, keep, o)
		return
	}
	c.readStream(resp, r, keep, o)
}

// checkBatch judges a fully read JSON body (a batch answer, or the
// structured error body of either endpoint).
func (c *clientState) checkBatch(status int, r *request, keep bool, o *outcome) {
	var sr slimResponse
	if err := json.Unmarshal(c.body.Bytes(), &sr); err != nil {
		o.fail, o.detail = failWrong, fmt.Sprintf("status %d, undecodable body: %v", status, err)
		return
	}
	if status != http.StatusOK {
		o.fail = "status_" + strconv.Itoa(status)
		if sr.Error != nil {
			o.fail, o.detail = string(sr.Error.Code), sr.Error.Message
		}
		return
	}
	scores := make([]float64, len(sr.Results))
	for i, s := range sr.Results {
		scores[i] = s.Score
	}
	o.judge(r, scores, sr.DNF, sr.Degraded)
	o.cached = sr.Cached
	o.sumDepths = sr.Cost.SumDepths
	if sr.Trace != nil {
		o.phases = sr.Trace.Phases
	}
	if keep {
		o.raw = append([]byte(nil), c.body.Bytes()...)
	}
}

// readStream consumes an NDJSON answer line by line, stamping the first
// result line (time to first event) and the last byte.
func (c *clientState) readStream(resp *http.Response, r *request, keep bool, o *outcome) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(c.line, maxStreamLine)
	var scores []float64
	var summary *slimSummary
	var raw []byte
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev slimEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			o.latency = time.Since(o.start)
			o.fail, o.detail = failWrong, fmt.Sprintf("undecodable stream line: %v", err)
			return
		}
		switch ev.Type {
		case api.EventResult:
			if len(scores) == 0 {
				o.ttfe = time.Since(o.start)
			}
			if ev.Result == nil {
				o.fail, o.detail = failWrong, "result event carries no result"
			} else {
				scores = append(scores, ev.Result.Score)
			}
		case api.EventSummary:
			summary = ev.Summary
		case api.EventTrace:
			if ev.Trace != nil {
				o.phases = ev.Trace.Phases
			}
		case api.EventError:
			o.fail = failWrong
			if ev.Error != nil {
				o.fail, o.detail = string(ev.Error.Code), ev.Error.Message
			}
		default:
			o.fail, o.detail = failWrong, fmt.Sprintf("unknown event type %q", ev.Type)
		}
		if keep {
			raw = append(append(raw, line...), '\n')
		}
	}
	o.latency = time.Since(o.start)
	if err := sc.Err(); err != nil {
		o.fail, o.detail = failTransport, err.Error()
		return
	}
	if o.fail != "" {
		return
	}
	if summary == nil {
		o.fail, o.detail = failWrong, "stream ended without a summary event"
		return
	}
	if summary.Count != len(scores) {
		o.fail, o.detail = failWrong, fmt.Sprintf("summary counts %d results, stream carried %d", summary.Count, len(scores))
		return
	}
	o.judge(r, scores, summary.DNF, summary.Degraded)
	o.cached = summary.Cached
	o.sumDepths = summary.Cost.SumDepths
	o.raw = raw
}

// judge applies the per-response correctness rules: K results, scores
// non-increasing, not DNF, not degraded.
func (o *outcome) judge(r *request, scores []float64, dnf, degraded bool) {
	switch {
	case len(scores) != r.req.K:
		o.fail, o.detail = failWrong, fmt.Sprintf("%d results, want K=%d", len(scores), r.req.K)
	case dnf:
		o.fail, o.detail = failWrong, "dnf"
	case degraded:
		o.fail, o.detail = failWrong, "degraded"
	}
	for i := 1; i < len(scores) && o.fail == ""; i++ {
		if scores[i] > scores[i-1] {
			o.fail, o.detail = failWrong, fmt.Sprintf("score rises at rank %d", i+1)
		}
	}
}

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// processCPU is the user+sys CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the request list against t as a closed loop: each of clients
// goroutines takes the next request from a shared cursor only after its
// previous one completed, so a slower system is offered less load. A
// request flagged replace first re-registers rels[0] on the issuing
// client (a catalog write beside the reads). Every keepEvery-th response
// (and its twin's) is kept as bytes for the oracles; 0 keeps none.
// Requests not issued when deadline passes stay unissued and count as
// failed.
func drive(t *topology, reqs []request, rels []*proxrank.Relation, clients, keepEvery int, deadline time.Duration) *driveResult {
	res := &driveResult{outcomes: make([]outcome, len(reqs))}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	transport := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()

	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	var rssPeak atomic.Int64
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if rss := residentBytes(); rss > rssPeak.Load() {
				rssPeak.Store(rss)
			}
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
		}
	}()

	res.before = t.exec.Stats()
	peersBefore := peerTotals(t.fleet)
	var cursor atomic.Int64
	block := (len(reqs) + blocks - 1) / blocks
	var mu sync.Mutex // guards res.replaces and res.marks
	var wg sync.WaitGroup
	res.marks = append(res.marks, mark{time.Now(), processCPU()})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := &clientState{http: &http.Client{Transport: transport}, line: make([]byte, 0, 64<<10)}
			for ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if i > 0 && i%block == 0 {
					mu.Lock()
					res.marks = append(res.marks, mark{time.Now(), processCPU()})
					mu.Unlock()
				}
				r := &reqs[i]
				if r.replace {
					span := time.Now()
					err := t.cat.Replace(rels[0].Name, rels[0], 0, proxrank.GridPartition)
					d := time.Since(span)
					mu.Lock()
					res.replaces = append(res.replaces, d)
					mu.Unlock()
					if err != nil {
						res.outcomes[i] = outcome{issued: true, start: span, fail: errCode(err), detail: "catalog replace: " + err.Error()}
						continue
					}
				}
				keep := keepEvery > 0 && (i%keepEvery == 0 || (r.twin >= 0 && r.twin%keepEvery == 0))
				cs.issue(ctx, t.url, r, keep, &res.outcomes[i])
			}
		}()
	}
	wg.Wait()
	first, last := res.marks[0], mark{time.Now(), processCPU()}
	res.marks = append(res.marks, last)
	res.wall = last.at.Sub(first.at)
	res.cpu = last.cpu - first.cpu
	close(stopSampler)
	<-samplerDone
	res.rssPeak = rssPeak.Load()
	res.after = t.exec.Stats()
	peersAfter := peerTotals(t.fleet)
	res.peers = peerDelta{
		retries: peersAfter.retries - peersBefore.retries,
		hedges:  peersAfter.hedges - peersBefore.hedges,
	}
	for i := range res.outcomes {
		if o := &res.outcomes[i]; !o.issued && o.fail == "" {
			o.fail = failUnissued
		}
	}
	return res
}

// errCode buckets an in-process error the way the wire would: the api
// code when there is one, "internal" otherwise.
func errCode(err error) string {
	var ae *api.Error
	if errors.As(err, &ae) && ae.Code != "" {
		return string(ae.Code)
	}
	return string(api.CodeInternal)
}
