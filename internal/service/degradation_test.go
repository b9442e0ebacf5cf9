package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/store"
)

// TestReadyzEndpoint pins readiness: a constructed server (store open,
// replay done by definition) answers 200 on /readyz.
func TestReadyzEndpoint(t *testing.T) {
	ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status = %d, want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ready" {
		t.Fatalf("/readyz body = %v", body)
	}
}

// TestPanicRecoveryMiddleware pins the outermost middleware: a panicking
// handler answers a JSON 500, the panic is counted, and /v1/stats
// surfaces it. The panicking route is injected behind the same middleware
// the real mux uses.
func TestPanicRecoveryMiddleware(t *testing.T) {
	var logged []string
	srv := New(Config{ErrorLog: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	boom := srv.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(boom)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/explode")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("500 body is not the JSON error envelope: %v", err)
	}
	if got := srv.counters.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "kaboom") {
		t.Errorf("panic log = %q, want the panic value", logged)
	}
	full := httptest.NewServer(srv.Handler())
	defer full.Close()
	if n := getStats(t, full).value(t, "ersolve_degraded_total", "kind", "panics"); n != 1 {
		t.Errorf("degraded stats panics = %g, want 1", n)
	}
}

// TestIngestBackpressure429 pins the backpressure contract: when the job
// backlog is full, POST /v1/collections answers 429 with a Retry-After
// hint (not 503 — the condition clears by itself), and the throttle is
// counted in the degradation stats.
func TestIngestBackpressure429(t *testing.T) {
	srv := New(Config{QueueBuffer: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wedge the single worker on a job we control, then fill the one
	// buffered slot, so the next enqueue is rejected as backlog-full.
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := srv.jobs.Enqueue("block", func(context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := srv.jobs.Enqueue("fill", func(context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	col := testCollection(t, 4)
	buf, err := json.Marshal(CollectionsRequest{Collections: []*corpus.Collection{col}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/collections", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 reply carries no Retry-After header")
	}
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("429 body is not the JSON error envelope: %v", err)
	}
	if n := getStats(t, ts).value(t, "ersolve_degraded_total", "kind", "ingest_throttled"); n != 1 {
		t.Errorf("ingest_throttled = %g, want 1", n)
	}
}

// TestIngestJobFailureIsStructured pins the job-failure surface: an
// ingest job that hits a read-only (journal-poisoned) store fails after
// one append, with the store's error in GET /v1/jobs/{id}.
func TestIngestJobFailureIsStructured(t *testing.T) {
	var appends atomic.Int64
	srv := New(Config{Store: readOnlyStore{store.NewMemStore(), &appends}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	col := testCollection(t, 4)
	buf, err := json.Marshal(CollectionsRequest{Collections: []*corpus.Collection{col}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/collections", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d, want 202", resp.StatusCode)
	}
	var ack CollectionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		jr, err := http.Get(ts.URL + ack.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		var job store.Job
		if err := json.NewDecoder(jr.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if job.Status == store.JobFailed {
			if n := appends.Load(); n != 1 {
				t.Errorf("the job appended %d times, want 1 (a failed append is not run again)", n)
			}
			if !strings.Contains(job.Error, "read-only") {
				t.Errorf("error %q does not carry the cause", job.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest job never failed; last state %+v", job)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readOnlyStore models a store whose journal has faulted: every append is
// rejected deterministically, and counted.
type readOnlyStore struct {
	store.DocumentStore
	appends *atomic.Int64
}

func (s readOnlyStore) Append([]*corpus.Collection) (int, error) {
	s.appends.Add(1)
	return 0, errors.New("store: store is read-only after a journal failure")
}
