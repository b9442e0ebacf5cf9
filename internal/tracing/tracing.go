// Package tracing is a lightweight, dependency-free span layer for the
// resolve pipeline and the service's request handlers. A Trace is one
// request's tree of spans (root span plus Block/Prepare/Analyze/Cluster
// children); finished traces land in a lock-free ring Buffer of recent
// traces dumped by GET /v1/traces. All builder methods are nil-safe, so
// code under instrumentation can hold a nil *Active when tracing is
// disabled and pay only a nil check.
package tracing

import (
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. The root span has ID
// RootSpanID and Parent 0; children point at their parent's ID.
type Span struct {
	// ID identifies the span within its trace; IDs start at RootSpanID.
	ID int64 `json:"id"`
	// Parent is the parent span's ID, 0 for the root.
	Parent int64 `json:"parent,omitempty"`
	// Name is the operation, e.g. "resolve.incremental" or "cluster".
	Name string `json:"name"`
	// Start is the span's start time.
	Start time.Time `json:"start"`
	// DurationMicros is the span's duration in microseconds.
	DurationMicros int64 `json:"duration_us"`
	// Attrs are the span's annotations, if any.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Trace is one finished request trace: a stable hex ID plus the span
// tree, root span first, children sorted by start time.
type Trace struct {
	// ID is the trace's hex identifier.
	ID string `json:"id"`
	// Name is the root span's name, duplicated for cheap listing.
	Name string `json:"name"`
	// Start is the root span's start time.
	Start time.Time `json:"start"`
	// DurationMicros is the root span's duration in microseconds.
	DurationMicros int64 `json:"duration_us"`
	// Spans is the full span tree, root first.
	Spans []Span `json:"spans"`
}

// RootSpanID is the span ID every trace's root span carries.
const RootSpanID int64 = 1

// Active is an in-flight trace under construction. The zero value is not
// useful; obtain one from Buffer.Start. A nil *Active is valid and turns
// every method into a no-op, which is how disabled tracing costs nothing.
type Active struct {
	buf    *Buffer
	id     uint64
	name   string
	start  time.Time
	mu     sync.Mutex
	nextID int64
	spans  []Span
	attrs  []Attr
}

// Buffer is a fixed-size lock-free ring of recently finished traces.
// Writers claim a slot with one atomic add and publish the trace with one
// atomic pointer store; readers snapshot whatever is published. Older
// traces are overwritten once the ring wraps.
type Buffer struct {
	slots []atomic.Pointer[Trace]
	pos   atomic.Uint64 // next slot to claim
	ids   atomic.Uint64 // trace ID source
}

// NewBuffer returns a ring holding up to size traces; sizes below one
// fall back to 64.
func NewBuffer(size int) *Buffer {
	if size < 1 {
		size = 64
	}
	return &Buffer{slots: make([]atomic.Pointer[Trace], size)}
}

// Start begins a new trace whose root span carries name. A nil Buffer
// returns a nil *Active, keeping instrumented code unconditional.
func (b *Buffer) Start(name string) *Active {
	if b == nil {
		return nil
	}
	return &Active{
		buf:    b,
		id:     b.ids.Add(1),
		name:   name,
		start:  time.Now(),
		nextID: RootSpanID,
	}
}

// SetAttr annotates the root span.
func (a *Active) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.attrs = append(a.attrs, Attr{Key: key, Value: value})
	a.mu.Unlock()
}

// Span records one finished child span of the root: an operation named
// name that started at start and ran for d, annotated with attrs
// (alternating key, value). It is shaped for after-the-fact observation
// seams that report a duration once a stage completes.
func (a *Active) Span(name string, start time.Time, d time.Duration, attrs ...string) {
	if a == nil {
		return
	}
	s := Span{Parent: RootSpanID, Name: name, Start: start, DurationMicros: d.Microseconds()}
	for i := 0; i+1 < len(attrs); i += 2 {
		s.Attrs = append(s.Attrs, Attr{Key: attrs[i], Value: attrs[i+1]})
	}
	a.mu.Lock()
	a.nextID++
	s.ID = a.nextID
	a.spans = append(a.spans, s)
	a.mu.Unlock()
}

// End finishes the trace and publishes it to the buffer. Child spans are
// sorted by start time (then ID) under the root. End is idempotent-free:
// call it exactly once, typically deferred at request entry. A trace that
// is never ended is never published: a handler drops a rejected request's
// trace by returning before it defers End.
func (a *Active) End() {
	if a == nil {
		return
	}
	d := time.Since(a.start)
	a.mu.Lock()
	spans := a.spans
	attrs := a.attrs
	a.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
	root := Span{
		ID:             RootSpanID,
		Name:           a.name,
		Start:          a.start,
		DurationMicros: d.Microseconds(),
		Attrs:          attrs,
	}
	tr := &Trace{
		ID:             traceID(a.id, a.start),
		Name:           a.name,
		Start:          a.start,
		DurationMicros: root.DurationMicros,
		Spans:          append([]Span{root}, spans...),
	}
	slot := (a.buf.pos.Add(1) - 1) % uint64(len(a.buf.slots))
	a.buf.slots[slot].Store(tr)
}

// Traces returns up to limit finished traces, newest first. limit <= 0
// means all retained traces.
func (b *Buffer) Traces(limit int) []Trace {
	if b == nil {
		return nil
	}
	n := len(b.slots)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Trace, 0, limit)
	pos := b.pos.Load()
	for i := 0; i < n && len(out) < limit; i++ {
		// Walk backwards from the most recently claimed slot.
		slot := (pos + uint64(n) - 1 - uint64(i)) % uint64(n)
		if tr := b.slots[slot].Load(); tr != nil {
			out = append(out, *tr)
		}
	}
	return out
}

// traceID renders a stable 16-hex-digit trace identifier: the trace's
// start second in the high half and the buffer's sequence number in the
// low half — unique within a process run, roughly time-ordered across
// restarts.
func traceID(seq uint64, start time.Time) string {
	var raw [8]byte
	binary.BigEndian.PutUint32(raw[:4], uint32(start.Unix()))
	binary.BigEndian.PutUint32(raw[4:], uint32(seq))
	return hex.EncodeToString(raw[:])
}
