package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/ann"
	"repro/internal/corpus"
)

// TestANNModeIncrementalResolve pins the happy path of blocking_mode
// "ann": the incremental endpoint serves canopy from the shared ANN
// candidate index, reports indexer "ann" with the effective graph knobs,
// pays only the ingest delta on repeat runs, and surfaces the graph in
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
	if first.Blocking.AnnM != ann.DefaultM || first.Blocking.AnnEf != ann.DefaultEfSearch {
		t.Fatalf("ann knobs = M %d / ef %d, want the defaults %d / %d",
			first.Blocking.AnnM, first.Blocking.AnnEf, ann.DefaultM, ann.DefaultEfSearch)
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
	// The index key carries the graph knobs, M and ef: the defaults here.
	key := graphs[0].Labels["index"]
	if key != "ann|canopy|collection|12|64" || key != fmt.Sprintf("ann|canopy|collection|%d|%d", ann.DefaultM, ann.DefaultEfSearch) {
		t.Errorf("ann index key = %q", key)
	}
	if graphs[0].Value != 30 || stats.value(t, "ersolve_ann_index_blocks", "index", key) < 1 {
		t.Errorf("ann index stats = %+v", stats)
	}
}

// TestANNModeValidation pins the 400 surface of the new knobs on both
// resolve endpoints: unknown modes, non-approximable schemes, unusable
// graph knobs, and ann knobs sent without ann mode are all rejected
// before any shared index entry is created for them.
func TestANNModeValidation(t *testing.T) {
	ts := testServer(t, Config{})

	cases := []struct {
		name  string
		knobs resolveKnobs
	}{
		{"unknown mode", resolveKnobs{BlockingMode: "fuzzy"}},
		{"exact scheme not approximable", resolveKnobs{BlockingMode: "ann"}},
		{"keyed scheme not approximable", resolveKnobs{BlockingMode: "ann", Blocking: "token"}},
		{"degree one graph", resolveKnobs{BlockingMode: "ann", Blocking: "canopy", AnnM: 1}},
		{"negative degree", resolveKnobs{BlockingMode: "ann", Blocking: "canopy", AnnM: -4}},
		{"negative beam", resolveKnobs{BlockingMode: "ann", Blocking: "canopy", AnnEf: -1}},
		{"ann knobs without ann mode", resolveKnobs{Blocking: "canopy", AnnEf: 32}},
		{"ann knobs and nothing else", resolveKnobs{AnnM: 16, AnnEf: 32}},
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
