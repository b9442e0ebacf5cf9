package tracing

import (
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	b := NewBuffer(4)
	tr := b.Start("resolve.incremental")
	tr.SetAttr("store_version", "7")
	base := time.Now()
	// Report children out of start order; End must sort them.
	tr.Span("cluster", base.Add(30*time.Millisecond), 5*time.Millisecond, "block", "b1")
	tr.Span("block", base, 10*time.Millisecond)
	tr.Span("prepare", base.Add(10*time.Millisecond), 8*time.Millisecond, "block", "b1")
	tr.End()

	traces := b.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Name != "resolve.incremental" || got.ID == "" {
		t.Fatalf("trace header = %+v", got)
	}
	if len(got.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(got.Spans))
	}
	root := got.Spans[0]
	if root.ID != RootSpanID || root.Parent != 0 || root.Name != "resolve.incremental" {
		t.Fatalf("root span = %+v", root)
	}
	if len(root.Attrs) != 1 || root.Attrs[0] != (Attr{Key: "store_version", Value: "7"}) {
		t.Fatalf("root attrs = %+v", root.Attrs)
	}
	wantOrder := []string{"block", "prepare", "cluster"}
	for i, name := range wantOrder {
		s := got.Spans[i+1]
		if s.Name != name {
			t.Errorf("span %d = %q, want %q (children must sort by start)", i+1, s.Name, name)
		}
		if s.Parent != RootSpanID {
			t.Errorf("span %q parent = %d, want root %d", s.Name, s.Parent, RootSpanID)
		}
		if s.ID == RootSpanID {
			t.Errorf("span %q reuses the root ID", s.Name)
		}
	}
	if got.Spans[3].Attrs[0].Value != "b1" {
		t.Errorf("cluster attrs = %+v, want block=b1", got.Spans[3].Attrs)
	}
	if got.DurationMicros != root.DurationMicros {
		t.Errorf("trace duration %d != root duration %d", got.DurationMicros, root.DurationMicros)
	}
}

func TestNilSafety(t *testing.T) {
	// The nil Active an untraced handler holds must be inert.
	var tr *Active
	tr.SetAttr("k", "v")
	tr.Span("stage", time.Now(), time.Millisecond)
	tr.End()
}

func TestRingOverwritesAndOrders(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Start("t").End()
	}
	traces := b.Traces(0)
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want ring size 3", len(traces))
	}
	// Newest first: sequence numbers strictly decreasing via ID low half.
	for i := 1; i < len(traces); i++ {
		if traces[i-1].ID <= traces[i].ID {
			t.Fatalf("traces not newest-first: %q then %q", traces[i-1].ID, traces[i].ID)
		}
	}
	if got := b.Traces(2); len(got) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(got))
	}
}

func TestUniqueTraceIDs(t *testing.T) {
	b := NewBuffer(64)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		b.Start("t").End()
	}
	for _, tr := range b.Traces(0) {
		if seen[tr.ID] {
			t.Fatalf("duplicate trace ID %q", tr.ID)
		}
		seen[tr.ID] = true
	}
}

func TestConcurrentTraces(t *testing.T) {
	b := NewBuffer(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr := b.Start("w")
				tr.Span("s", time.Now(), time.Microsecond)
				tr.End()
			}
		}()
	}
	wg.Wait()
	traces := b.Traces(0)
	if len(traces) != 8 {
		t.Fatalf("got %d traces, want full ring of 8", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Spans) != 2 {
			t.Fatalf("trace %q has %d spans, want 2", tr.ID, len(tr.Spans))
		}
	}
}
