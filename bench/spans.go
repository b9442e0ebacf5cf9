package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one line of spans.jsonl. Parent 0 marks a trace's root.
type span struct {
	Trace  int               `json:"trace"`
	Span   int               `json:"span"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// recorder keeps the probe's spans in memory until the run ends. One
// trace per replayed operation; the pipeline's Observe hook adds spans
// from worker goroutines, hence the lock.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newTrace() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// add records a finished span and returns its ID.
func (r *recorder) add(trace, parent int, name string, start time.Time, d time.Duration, attrs map[string]string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	s := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{Trace: trace, Span: id, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds(), Attrs: attrs})
	return id
}

// open is a span still running. Its ID is reserved up front so children
// can name it as their parent before it ends.
type open struct {
	r     *recorder
	idx   int
	start time.Time
}

func (r *recorder) begin(trace, parent int, name string) *open {
	start := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Trace: trace, Span: len(r.spans) + 1, Parent: parent, Name: name, Start: start.Sub(r.t0).Nanoseconds()})
	return &open{r: r, idx: len(r.spans) - 1, start: start}
}

func (o *open) id() int { return o.idx + 1 }

func (o *open) end(attrs map[string]string) time.Duration {
	d := time.Since(o.start)
	o.r.mu.Lock()
	defer o.r.mu.Unlock()
	s := &o.r.spans[o.idx]
	s.End = s.Start + d.Nanoseconds()
	s.Attrs = attrs
	return d
}

// totals sums one trace's span durations by name, in milliseconds.
func (r *recorder) totals(trace int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for _, s := range r.spans {
		if s.Trace == trace {
			out[s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
