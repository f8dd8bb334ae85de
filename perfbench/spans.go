package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started. Spans of one operation (a
// report, a simulation pass, a service job) share Op; Parent is 0 for
// an operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle is an open span; finish closes it.
type spanHandle struct {
	t *tracer
	s span
}

// begin opens a span. op 0 starts a new operation, whose id is the
// root span's id.
func (t *tracer) begin(name string, parent, op int64) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if op == 0 {
		op = id
	}
	return spanHandle{t, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()}}
}

// record stores a span whose start and end the caller measured.
func (t *tracer) record(name string, parent, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	h := t.begin(name, parent, op)
	h.s.Start = start.Sub(t.t0).Nanoseconds()
	h.s.End = end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, h.s)
	t.mu.Unlock()
}

func (h spanHandle) id() int64 { return h.s.ID }
func (h spanHandle) op() int64 { return h.s.Op }

// finish closes the span and returns its duration.
func (h spanHandle) finish() time.Duration {
	if h.t == nil {
		return 0
	}
	h.s.End = time.Since(h.t.t0).Nanoseconds()
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.s)
	h.t.mu.Unlock()
	return time.Duration(h.s.End - h.s.Start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(w io.Writer, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
}
