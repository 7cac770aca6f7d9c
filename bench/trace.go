package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 = none).
// Times are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// spanRecorder keeps spans in memory until the run ends; nothing is
// written while anything is being timed. A nil recorder records nothing.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// add records [start, end) and returns the span's ID for its children.
func (r *spanRecorder) add(name string, req, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Req: req, Parent: parent,
		StartNs: start.Sub(r.epoch).Nanoseconds(),
		EndNs:   end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose end is not known yet; end closes it.
func (r *spanRecorder) begin(name string, req, parent int, start time.Time) int {
	return r.add(name, req, parent, start, start)
}

func (r *spanRecorder) end(id int, at time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNs = at.Sub(r.epoch).Nanoseconds()
}

// writeFile dumps the spans as JSON lines.
func (r *spanRecorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
