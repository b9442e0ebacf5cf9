package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/persist"
)

// statsReply is a decoded GET /v1/stats reply: every registered metric
// family by name.
type statsReply map[string][]statsSample

// statsSample is one sample of a /v1/stats family: a value, or a
// histogram's count, sum and cumulative buckets.
type statsSample struct {
	Labels  map[string]string `json:"labels"`
	Value   float64           `json:"value"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	} `json:"buckets"`
}

func getStats(t *testing.T, ts *httptest.Server) statsReply {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", resp.StatusCode)
	}
	var out statsReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// value is the value of family's sample whose labels are exactly the given
// name/value pairs; it fails the test when there is no such sample.
func (r statsReply) value(t *testing.T, family string, labels ...string) float64 {
	t.Helper()
	for _, smp := range r[family] {
		match := len(smp.Labels)*2 == len(labels)
		for i := 0; match && i < len(labels); i += 2 {
			match = smp.Labels[labels[i]] == labels[i+1]
		}
		if match {
			return smp.Value
		}
	}
	t.Fatalf("/v1/stats has no %s sample labeled %q", family, labels)
	return 0
}

// stageCount is the observation count of one stage's latency histogram.
func (r statsReply) stageCount(t *testing.T, stage string) int64 {
	t.Helper()
	for _, smp := range r["ersolve_stage_latency_seconds"] {
		if smp.Labels["stage"] == stage {
			return smp.Count
		}
	}
	t.Fatalf("/v1/stats has no %q latency histogram", stage)
	return 0
}

// TestStatsEndpoint pins the observability surface: per-stage counters,
// queue depth, and the key index's shape all show up after ingest and
// two incremental resolves.
func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t, Config{})
	col := testCollection(t, 24)

	empty := getStats(t, ts)
	indexes, listed := empty["ersolve_blocking_index_docs"]
	if empty.value(t, "ersolve_store_docs") != 0 || empty.value(t, "ersolve_resolve_runs_total") != 0 || !listed || len(indexes) != 0 {
		t.Fatalf("fresh-server stats = %+v", empty)
	}

	ingestCollection(t, ts, col)

	var run IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &run); code != http.StatusOK {
		t.Fatalf("incremental resolve = %d", code)
	}
	if run.Blocking.Indexer != "index" {
		t.Fatalf("blocking stats = %+v, want the index path", run.Blocking)
	}
	if run.Blocking.DeltaDocs != 24 {
		t.Fatalf("first resolve delta_docs = %d, want 24: the resolve keys the whole ingest", run.Blocking.DeltaDocs)
	}
	if run.Blocking.IndexedDocs != 24 {
		t.Fatalf("blocking stats = %+v, want 24 docs", run.Blocking)
	}

	var again IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &again); code != http.StatusOK {
		t.Fatalf("second incremental resolve = %d", code)
	}
	if again.Blocking.DeltaDocs != 0 || again.Blocking.DirtyBlocks != 0 {
		t.Fatalf("unchanged-store resolve blocking stats = %+v, want no delta", again.Blocking)
	}
	if again.Incremental.ReusedBlocks != again.Incremental.Blocks {
		t.Fatalf("unchanged-store resolve reused %d of %d blocks", again.Incremental.ReusedBlocks, again.Incremental.Blocks)
	}

	st := getStats(t, ts)
	if docs, batches := st.value(t, "ersolve_store_docs"), st.value(t, "ersolve_ingest_batches_total"); docs != 24 || batches != 1 {
		t.Fatalf("stats store docs / ingest batches = %g / %g", docs, batches)
	}
	if done, failed := st.value(t, "ersolve_queue_jobs_total", "event", "done"), st.value(t, "ersolve_queue_jobs_total", "event", "failed"); done != 1 || failed != 0 {
		t.Fatalf("ingest jobs done / failed = %g / %g, want 1 / 0", done, failed)
	}
	runs, blocks := st.value(t, "ersolve_resolve_runs_total"), st.value(t, "ersolve_resolve_blocks_total")
	outcomes := 0.0
	for _, outcome := range []string{"reused", "prepared", "trivial"} {
		outcomes += st.value(t, "ersolve_resolve_block_outcomes_total", "outcome", outcome)
	}
	if runs != 2 || blocks != outcomes {
		t.Fatalf("resolve counters: %g runs, %g blocks, %g block outcomes", runs, blocks, outcomes)
	}
	if n := len(st["ersolve_blocking_index_docs"]); n != 1 {
		t.Fatalf("indexes = %+v, want exactly one", st["ersolve_blocking_index_docs"])
	}
	const key = "best|closure|exact|collection|0.1|10|1"
	if docs := st.value(t, "ersolve_blocking_index_docs", "index", key); docs != 24 {
		t.Fatalf("index %s holds %g docs, want 24", key, docs)
	}
	if n, keys := len(st["ersolve_blocking_index_keys"]), st.value(t, "ersolve_blocking_index_keys", "index", key); n != 1 || keys == 0 {
		t.Fatalf("index keys = %+v, want one sample holding the index's keys", st["ersolve_blocking_index_keys"])
	}
	if states := st.value(t, "ersolve_snapshot_states"); states != 1 {
		t.Fatalf("snapshot states = %g", states)
	}

	// The stats endpoint is GET-only.
	if code := postJSON(t, ts, "/v1/stats", struct{}{}, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d, want 405", code)
	}
}

// TestIncrementalSchemeFallbackReported pins that the incremental endpoint
// has no per-run scheme pass to fall back to: it refuses a global scheme
// with a 400 naming the key-based ones, and grows no index or state for it.
func TestIncrementalSchemeFallbackReported(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 24))

	var refused errorResponse
	req := IncrementalResolveRequest{}
	req.Blocking = "sortedneighborhood"
	if code := postJSON(t, ts, "/v1/resolve/incremental", req, &refused); code != http.StatusBadRequest ||
		!strings.Contains(refused.Error, "(valid: exact, token)") {
		t.Fatalf("incremental resolve = %d %q, want 400 naming exact, token", code, refused.Error)
	}
	st := getStats(t, ts)
	if indexes := st["ersolve_blocking_index_docs"]; len(indexes) != 0 {
		t.Fatalf("a refused global scheme grew an index: %+v", indexes)
	}
	if states := st.value(t, "ersolve_snapshot_states"); states != 0 {
		t.Fatalf("a refused global scheme left %g states", states)
	}
}

// TestNamesKeysKnob pins the richer-keys knob end to end: "keys":"names"
// is accepted, keyed separately from the default, and merges
// cross-collection name variants into one block.
func TestNamesKeysKnob(t *testing.T) {
	ts := testServer(t, Config{})
	variant := func(name, url, text string) *corpus.Collection {
		return &corpus.Collection{Name: name, NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: url, Text: text, PersonaID: 0},
		}}
	}
	ingestCollection(t, ts, variant("smith, j", "http://a.example/1", "John Smith wrote the database survey"))
	ingestCollection(t, ts, variant("john smith", "http://b.example/1", "John Smith presented the keynote"))

	var byCollection IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &byCollection); code != http.StatusOK {
		t.Fatalf("default-keys resolve = %d", code)
	}
	if len(byCollection.Blocks) != 2 {
		t.Fatalf("collection keys produced %d blocks, want 2", len(byCollection.Blocks))
	}

	var byNames IncrementalResolveResponse
	req := IncrementalResolveRequest{}
	req.Keys = "names"
	if code := postJSON(t, ts, "/v1/resolve/incremental", req, &byNames); code != http.StatusOK {
		t.Fatalf("names-keys resolve = %d", code)
	}
	if len(byNames.Blocks) != 1 || byNames.Blocks[0].Docs != 2 {
		t.Fatalf("names keys produced %+v, want one merged 2-doc block", byNames.Blocks)
	}

	var errOut errorResponse
	bad := IncrementalResolveRequest{}
	bad.Keys = "bogus"
	if code := postJSON(t, ts, "/v1/resolve/incremental", bad, &errOut); code != http.StatusBadRequest ||
		!strings.Contains(errOut.Error, "collection, names") {
		t.Fatalf("bogus keys = %d %+v, want 400 listing valid values", code, errOut)
	}
}

// TestIngestLeavesIndexesToResolve pins that an ingest is journal + merge
// only: a live blocking index does not move until the next resolve, which
// keys the whole ingested batch as its delta without falling back to a
// full membership pass.
func TestIngestLeavesIndexesToResolve(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 10))
	var run IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &run); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}
	indexed := func() float64 {
		t.Helper()
		return getStats(t, ts).value(t, "ersolve_blocking_index_docs", "index", "best|closure|exact|collection|0.1|10|1")
	}
	before := indexed()
	if before != 10 {
		t.Fatalf("index holds %g docs after the first resolve, want 10", before)
	}

	grown := testCollection(t, 12)
	grown.Name = "cohen"
	ingestCollection(t, ts, grown)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		if docs := indexed(); docs != before {
			t.Fatalf("ingest advanced the index to %g docs before any resolve, want %g", docs, before)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &run); code != http.StatusOK {
		t.Fatalf("second resolve = %d", code)
	}
	if run.Blocking.DeltaDocs != 12 {
		t.Fatalf("second resolve blocking stats = %+v, want the 12 ingested docs as its delta, no fallback", run.Blocking)
	}
}

// TestIndexSurvivesRestart pins what survives a graceful restart at the
// service level: the committed resolution, not the candidate index. A
// second server over the same data directory keeps the checkRestartResolve
// contract — its first incremental resolve rebuilds the index from the
// replayed store and reuses every block.
func TestIndexSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	col := testCollection(t, 24)

	open := func() (*Server, *httptest.Server, *persist.Data) {
		data, err := persist.OpenWithOptions(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Store: data.Store, Serving: data.Serving})
		return srv, httptest.NewServer(srv.Handler()), data
	}
	shut := func(srv *Server, ts *httptest.Server, data *persist.Data) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if err := data.Close(); err != nil {
			t.Fatal(err)
		}
	}

	srv1, ts1, data1 := open()
	ingestCollection(t, ts1, col)
	var before IncrementalResolveResponse
	if code := postJSON(t, ts1, "/v1/resolve/incremental", IncrementalResolveRequest{}, &before); code != http.StatusOK {
		t.Fatalf("pre-restart resolve = %d", code)
	}
	shut(srv1, ts1, data1)

	srv2, ts2, data2 := open()
	defer shut(srv2, ts2, data2)
	var after IncrementalResolveResponse
	if code := postJSON(t, ts2, "/v1/resolve/incremental", IncrementalResolveRequest{}, &after); code != http.StatusOK {
		t.Fatalf("post-restart resolve = %d", code)
	}
	if after.Docs != 24 {
		t.Errorf("post-restart resolve saw %d documents, want the 24 ingested", after.Docs)
	}
	checkRestartResolve(t, after, before)
}
