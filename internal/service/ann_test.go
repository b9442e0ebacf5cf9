package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/ann"
	"repro/internal/corpus"
)

// TestANNModeIncrementalResolve pins the happy path of blocking_mode
// "ann": the incremental endpoint serves canopy from the shared ANN
// candidate index, reports indexer "ann", pays only the ingest delta on repeat runs, and surfaces the graph in
// /v1/stats as the ersolve_ann_index_* families.
func TestANNModeIncrementalResolve(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 30))

	req := IncrementalResolveRequest{
		resolveKnobs: resolveKnobs{Blocking: "canopy", BlockingMode: "ann"},
	}
	first := resolveOK(t, ts, req)
	if first.Blocking.Indexer != "ann" {
		t.Fatalf("indexer = %q, want \"ann\"", first.Blocking.Indexer)
	}
	if first.Blocking.IndexedDocs != 30 || first.Blocking.DeltaDocs != 30 {
		t.Fatalf("first run indexed %d docs with delta %d, want 30/30",
			first.Blocking.IndexedDocs, first.Blocking.DeltaDocs)
	}

	// Steady state: nothing ingested since, so the graph serves the whole
	// blocking pass with zero insertions.
	again := resolveOK(t, ts, req)
	if again.Blocking.Indexer != "ann" || again.Blocking.DeltaDocs != 0 {
		t.Fatalf("repeat run = %+v, want indexer \"ann\" with zero delta", again.Blocking)
	}
	if len(again.Blocks) != len(first.Blocks) {
		t.Fatalf("repeat run found %d blocks, first found %d", len(again.Blocks), len(first.Blocks))
	}

	stats := getStats(t, ts)
	graphs := stats["ersolve_ann_index_docs"]
	if len(graphs) != 1 {
		t.Fatalf("stats lists %d ann indexes, want 1", len(graphs))
	}
	// The index key is the owning configuration's knobs key, which carries
	// the graph knobs, M and ef: the defaults here.
	key := graphs[0].Labels["index"]
	if key != "best|closure|canopy|collection|0.1|10|1|ann|12|64" || key != fmt.Sprintf("best|closure|canopy|collection|0.1|10|1|ann|%d|%d", ann.DefaultM, ann.DefaultEfSearch) {
		t.Errorf("ann index key = %q", key)
	}
	if graphs[0].Value != 30 || stats.value(t, "ersolve_ann_index_blocks", "index", key) < 1 {
		t.Errorf("ann index stats = %+v", stats)
	}
}

// TestANNGraphKeysDoNotSplitStates pins that the graph's degree and beam
// are not request knobs: a body naming ann_m and ann_ef resolves under the
// state of the same body without them, so the second run keys nothing new
// and serves the first run's blocks.
func TestANNGraphKeysDoNotSplitStates(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 30))

	resolve := func(body string) IncrementalResolveResponse {
		t.Helper()
		var out IncrementalResolveResponse
		if code := postJSON(t, ts, "/v1/resolve/incremental", json.RawMessage(body), &out); code != http.StatusOK {
			t.Fatalf("%s = %d", body, code)
		}
		return out
	}
	first := resolve(`{"blocking":"canopy","blocking_mode":"ann","ann_ef":256,"ann_m":4}`)
	second := resolve(`{"blocking":"canopy","blocking_mode":"ann"}`)

	if states := getStats(t, ts).value(t, "ersolve_snapshot_states"); states != 1 {
		t.Errorf("%g snapshot states, want 1: ann_m and ann_ef filed a state of their own", states)
	}
	if second.Blocking.Indexer != "ann" || second.Blocking.DeltaDocs != 0 {
		t.Errorf("second run blocking = %+v, want indexer \"ann\" with zero delta", second.Blocking)
	}
	firstBlocks, err := json.Marshal(first.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	secondBlocks, err := json.Marshal(second.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstBlocks, secondBlocks) {
		t.Errorf("second run's blocks differ from the first's:\n%s\n%s", secondBlocks, firstBlocks)
	}
}

// TestANNModeValidation pins the 400 surface of blocking_mode on both
// resolve endpoints: unknown modes and non-approximable schemes are
// rejected before any shared index entry is created for them.
func TestANNModeValidation(t *testing.T) {
	ts := testServer(t, Config{})

	cases := []struct {
		name  string
		knobs resolveKnobs
	}{
		{"unknown mode", resolveKnobs{BlockingMode: "fuzzy"}},
		{"exact scheme not approximable", resolveKnobs{BlockingMode: "ann"}},
		{"keyed scheme not approximable", resolveKnobs{BlockingMode: "ann", Blocking: "token"}},
	}
	for _, c := range cases {
		// The incremental endpoint validates before touching the store, so
		// an empty store still answers 400, not 409.
		var errOut errorResponse
		code := postJSON(t, ts, "/v1/resolve/incremental",
			IncrementalResolveRequest{resolveKnobs: c.knobs}, &errOut)
		if code != http.StatusBadRequest || errOut.Error == "" {
			t.Errorf("%s: incremental = %d %q, want 400 with a message", c.name, code, errOut.Error)
		}
		// The one-shot endpoint shares the validation: same status, same
		// message, whichever knobs are set.
		resp := postResolve(t, ts, ResolveRequest{
			Collections:  []*corpus.Collection{testCollection(t, 4)},
			resolveKnobs: c.knobs,
		})
		var oneShot errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&oneShot); err != nil {
			t.Fatalf("%s: one-shot body: %v", c.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || oneShot.Error != errOut.Error {
			t.Errorf("%s: one-shot = %d %q, want 400 %q like the incremental endpoint",
				c.name, resp.StatusCode, oneShot.Error, errOut.Error)
		}
	}

	// A valid ann one-shot still resolves: fresh per-request graph.
	resp := postResolve(t, ts, ResolveRequest{
		Collections:  []*corpus.Collection{testCollection(t, 12)},
		resolveKnobs: resolveKnobs{Blocking: "canopy", BlockingMode: "ann"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid ann one-shot = %d, want 200", resp.StatusCode)
	}
}
