package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/service"
	"repro/internal/store"
)

// restartCorpus mirrors the pipeline equivalence harness's corpus: three
// person-name collections with different sizes and persona structure.
func restartCorpus(t *testing.T) []*corpus.Collection {
	t.Helper()
	cfgs := []corpus.CollectionConfig{
		{Name: "rivera", NumDocs: 16, NumPersonas: 3, Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: 21},
		{Name: "cohen", NumDocs: 12, NumPersonas: 2, Noise: 0.3, MissingInfo: 0.3, Spurious: 0.1, Seed: 33},
		{Name: "smith", NumDocs: 14, NumPersonas: 4, Noise: 0.5, MissingInfo: 0.1, Spurious: 0.3, Seed: 45},
	}
	cols := make([]*corpus.Collection, len(cfgs))
	for i, cfg := range cfgs {
		col, err := corpus.GenerateCollection(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = col
	}
	return cols
}

// ingestAll pushes the collections through the async ingest API in two
// batches and waits for the jobs to finish, so the journal is exercised
// through the real write path.
func ingestAll(t *testing.T, ts *httptest.Server, cols []*corpus.Collection) {
	t.Helper()
	for _, half := range []func(d []corpus.Document) []corpus.Document{
		func(d []corpus.Document) []corpus.Document { return d[:len(d)/2] },
		func(d []corpus.Document) []corpus.Document { return d[len(d)/2:] },
	} {
		batch := make([]*corpus.Collection, len(cols))
		for i, col := range cols {
			batch[i] = &corpus.Collection{Name: col.Name, Docs: half(col.Docs), NumPersonas: col.NumPersonas}
		}
		body, err := json.Marshal(map[string]any{"collections": batch})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/collections", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			JobID string `json:"job_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
		// The 202 is sent once the batch is journaled: its job is done.
		jr, err := http.Get(ts.URL + "/v1/jobs/" + ack.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var job store.Job
		if err := json.NewDecoder(jr.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if job.Status != store.JobDone {
			t.Fatalf("ingest job %s: %s (%s)", ack.JobID, job.Status, job.Error)
		}
	}
}

type incResponse struct {
	StoreVersion uint64 `json:"store_version"`
	Docs         int    `json:"docs"`
	Blocks       []struct {
		Name   string `json:"name"`
		Labels []int  `json:"labels"`
	} `json:"blocks"`
	Incremental struct {
		Blocks         int `json:"blocks"`
		ReusedBlocks   int `json:"reused_blocks"`
		PreparedBlocks int `json:"prepared_blocks"`
		TrivialBlocks  int `json:"trivial_blocks"`
	} `json:"incremental"`
}

func postIncremental(t *testing.T, ts *httptest.Server, body string) incResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/resolve/incremental", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("incremental status = %d for body %s", resp.StatusCode, body)
	}
	var out incResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKillAndRestartEqualsFull is the kill-and-restart acceptance test:
// a server with a -data directory ingests a corpus and resolves it under
// every blocking scheme a request accepts × strategy × clustering (the
// grid TestIncrementalEqualsFull pins in-process); the process then "dies"
// (the server is abandoned mid-flight — every durable write was already
// fsynced at operation time, exactly the crash contract) and a new
// server reopens the directory. After the restart:
//
//   - the reopened store snapshot is byte-identical to the pre-kill one,
//   - the first incremental run of every configuration reuses every
//     block (reused_blocks == blocks), and
//   - its clusters equal a fresh full resolution of the reopened store.
func TestKillAndRestartEqualsFull(t *testing.T) {
	schemes := []string{"exact", "token"}
	strategies := []string{"best", "threshold", "weighted", "majority"}
	clusterings := []string{"closure", "correlation"}
	if testing.Short() {
		strategies = []string{"best", "weighted"}
		clusterings = []string{"closure"}
	}
	knobs := func(scheme, strategy, clustering string) string {
		return fmt.Sprintf(`{"seed": 42, "blocking": %q, "strategy": %q, "clustering": %q}`,
			scheme, strategy, clustering)
	}

	dir := t.TempDir()
	data1, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := service.New(service.Config{Store: data1.Store, Serving: data1.Serving})
	ts1 := httptest.NewServer(srv1.Handler())

	ingestAll(t, ts1, restartCorpus(t))
	before := make(map[string]incResponse)
	for _, scheme := range schemes {
		for _, strategy := range strategies {
			for _, clustering := range clusterings {
				key := scheme + "/" + strategy + "/" + clustering
				before[key] = postIncremental(t, ts1, knobs(scheme, strategy, clustering))
				if got := before[key].Incremental; got.ReusedBlocks != 0 {
					t.Fatalf("%s: first-ever run reused %d blocks", key, got.ReusedBlocks)
				}
			}
		}
	}
	preKillJSON, preKillVersion := storeJSON(t, data1.Store)

	// Kill: abandon the server without any graceful flush. Only the file
	// handle is closed (a dead process frees its descriptors too); every
	// journal record and snapshot was synced when it was written.
	ts1.Close()
	if err := data1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart.
	data2, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer data2.Close()
	srv2 := service.New(service.Config{Store: data2.Store, Serving: data2.Serving})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	gotJSON, gotVersion := storeJSON(t, data2.Store)
	if !bytes.Equal(gotJSON, preKillJSON) {
		t.Fatal("reopened store snapshot is not byte-identical to the pre-kill one")
	}
	if gotVersion != preKillVersion {
		t.Fatalf("reopened store version %d, want %d", gotVersion, preKillVersion)
	}

	for _, scheme := range schemes {
		for _, strategy := range strategies {
			for _, clustering := range clusterings {
				key := scheme + "/" + strategy + "/" + clustering
				t.Run(key, func(t *testing.T) {
					body := knobs(scheme, strategy, clustering)
					reused := postIncremental(t, ts2, body)
					if reused.Incremental.ReusedBlocks != reused.Incremental.Blocks ||
						reused.Incremental.PreparedBlocks != 0 || reused.Incremental.Blocks == 0 {
						t.Errorf("post-restart stats = %+v, want every block reused", reused.Incremental)
					}
					prev := before[key]
					if len(reused.Blocks) != len(prev.Blocks) {
						t.Fatalf("block count changed across restart: %d vs %d", len(reused.Blocks), len(prev.Blocks))
					}
					for i := range prev.Blocks {
						a, b := prev.Blocks[i], reused.Blocks[i]
						if a.Name != b.Name || !equalLabels(a.Labels, b.Labels) {
							t.Errorf("block %q: clusters changed across restart (%v vs %v)", a.Name, a.Labels, b.Labels)
						}
					}

					// Persisted-incremental equals a fresh full resolution
					// of the reopened store.
					full := postIncremental(t, ts2, strings.TrimSuffix(body, "}")+`, "fresh": true}`)
					if full.Incremental.ReusedBlocks != 0 {
						t.Errorf("fresh run reused %d blocks", full.Incremental.ReusedBlocks)
					}
					for i := range full.Blocks {
						a, b := reused.Blocks[i], full.Blocks[i]
						if a.Name != b.Name || !equalLabels(a.Labels, b.Labels) {
							t.Errorf("block %q: persisted-incremental clusters %v != full clusters %v",
								a.Name, a.Labels, b.Labels)
						}
					}
				})
			}
		}
	}
}

func equalLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
