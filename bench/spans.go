package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wsstudy/internal/trace"
)

// The traced run records one span around each call it makes into a
// module's public functions: name, start, end, parent and run id. Spans
// stay in memory and are written to spans.jsonl when the run ends. A
// layer's self time is its span minus the part of it that child spans
// cover.

// span is one recorded interval, in nanoseconds from the run's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
	// Aggregate marks a span that totals many short intervals — the time
	// a simulator spent inside block deliveries — placed at its parent's
	// start, because the intervals themselves are too many to keep.
	Aggregate bool `json:"aggregate,omitempty"`
}

// tracer collects a run's spans. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	id    int
	start time.Time
}

// begin starts a span under parent (0 for none).
func (t *tracer) begin(parent int, name string) *openSpan {
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(now.Sub(t.t0)), Run: t.run})
	t.mu.Unlock()
	return &openSpan{t: t, id: id, start: now}
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	now := time.Now()
	o.t.mu.Lock()
	o.t.spans[o.id-1].End = int64(now.Sub(o.t.t0))
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(parent int, name string, f func() error) (time.Duration, error) {
	s := t.begin(parent, name)
	err := f()
	return s.end(), err
}

// aggregate records total time spent in many short intervals under
// parent as one span starting at start.
func (t *tracer) aggregate(parent int, name string, start time.Time, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: s + int64(total),
		Run: t.run, Aggregate: true,
	})
}

// count is how many spans the subtree rooted at id holds, id included.
// A child's id is always larger than its parent's, so one pass suffices.
func (t *tracer) count(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := map[int]bool{id: true}
	for _, s := range t.spans[id:] {
		if in[s.Parent] {
			in[s.ID] = true
		}
	}
	return len(in)
}

// self is a span's duration minus the union of its children's intervals
// (clipped to the span): the time attributed to no deeper layer.
func (t *tracer) self(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.spans[id-1]
	var kids [][2]int64
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, [2]int64{max(s.Start, parent.Start), min(s.End, parent.End)})
		}
	}
	return time.Duration(parent.End - parent.Start - covered(kids))
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	first := true
	for _, r := range iv {
		if r[1] <= r[0] {
			continue
		}
		switch {
		case first || r[0] >= hi:
			total += r[1] - r[0]
			hi = r[1]
			first = false
		case r[1] > hi:
			total += r[1] - hi
			hi = r[1]
		}
	}
	return total
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSink sits between a kernel's stream and a simulator and totals
// the time spent inside the simulator, two clock reads per block.
type timedSink struct {
	next   trace.Consumer
	inside time.Duration
	calls  int
}

func (s *timedSink) Ref(r trace.Ref) {
	t := time.Now()
	s.next.Ref(r)
	s.inside += time.Since(t)
	s.calls++
}

func (s *timedSink) Refs(block []trace.Ref) {
	t := time.Now()
	trace.Deliver(s.next, block)
	s.inside += time.Since(t)
	s.calls++
}

func (s *timedSink) BeginEpoch(n int) {
	if ec, ok := s.next.(trace.EpochConsumer); ok {
		t := time.Now()
		ec.BeginEpoch(n)
		s.inside += time.Since(t)
		s.calls++
	}
}

func (s *timedSink) Err() error { return trace.Canceled(s.next) }

var (
	_ trace.BlockConsumer = (*timedSink)(nil)
	_ trace.EpochConsumer = (*timedSink)(nil)
	_ trace.Stopper       = (*timedSink)(nil)
)

// clockCost measures what one clock read costs on this host, the unit of
// the tracing overhead the traced run reports.
func clockCost() time.Duration {
	const n = 200000
	start := time.Now()
	var sink time.Time
	for i := 0; i < n; i++ {
		sink = time.Now()
	}
	_ = sink
	return time.Since(start) / n
}
