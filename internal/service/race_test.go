package service

import (
	"net/http"
	"sync"
	"testing"

	"repro/internal/corpus"
)

// TestConcurrentIngestAndResolve stress-drives parallel POST
// /v1/collections and incremental resolves against one store. Run with
// -race. Afterwards no document may be lost and the final clusters must be
// deterministic: a cached incremental run and a forced-fresh full run over
// the settled store agree exactly.
func TestConcurrentIngestAndResolve(t *testing.T) {
	ts := testServer(t, Config{})
	const (
		workers   = 4
		batches   = 3
		batchDocs = 8
	)

	// Each worker owns one collection and delivers it in order, so every
	// collection's final content is deterministic even though workers
	// interleave arbitrarily.
	full := make([]*corpus.Collection, workers)
	for w := 0; w < workers; w++ {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name:    map[int]string{0: "rivera", 1: "cohen", 2: "smith", 3: "garcia"}[w],
			NumDocs: batches * batchDocs, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(100 + w),
		})
		if err != nil {
			t.Fatal(err)
		}
		full[w] = col
	}

	var (
		wg     sync.WaitGroup
		jobsMu sync.Mutex
		jobIDs []string
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			col := full[w]
			for b := 0; b < batches; b++ {
				batch := &corpus.Collection{
					Name:        col.Name,
					Docs:        col.Docs[b*batchDocs : (b+1)*batchDocs],
					NumPersonas: col.NumPersonas,
				}
				var ack CollectionsResponse
				code := postJSON(t, ts, "/v1/collections",
					CollectionsRequest{Collections: []*corpus.Collection{batch}}, &ack)
				if code != http.StatusAccepted {
					t.Errorf("worker %d batch %d: status %d", w, b, code)
					return
				}
				jobsMu.Lock()
				jobIDs = append(jobIDs, ack.JobID)
				jobsMu.Unlock()
			}
		}(w)
	}
	// Incremental resolves race the ingest; they may observe any prefix of
	// the store (or, before the first commit, an empty one). The last
	// resolver runs a second configuration, seed 2, so two configurations
	// snapshot the store in either order.
	two := int64(2)
	seed2 := IncrementalResolveRequest{resolveKnobs: resolveKnobs{Seed: &two}}
	for _, req := range []IncrementalResolveRequest{{}, {}, seed2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var out IncrementalResolveResponse
				code := postJSON(t, ts, "/v1/resolve/incremental", req, &out)
				if code != http.StatusOK && code != http.StatusConflict {
					t.Errorf("concurrent incremental: status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, id := range jobIDs {
		if job := waitJob(t, ts, id); job.Status != "done" {
			t.Fatalf("job %s = %+v", id, job)
		}
	}

	// Each configuration's final incremental resolve equals its fresh one.
	for _, req := range []IncrementalResolveRequest{{}, seed2} {
		var final, fresh IncrementalResolveResponse
		if code := postJSON(t, ts, "/v1/resolve/incremental", req, &final); code != http.StatusOK {
			t.Fatalf("final incremental: status %d", code)
		}
		want := workers * batches * batchDocs
		if final.Docs != want {
			t.Fatalf("store holds %d docs, want %d (lost documents)", final.Docs, want)
		}
		covered := 0
		for _, b := range final.Blocks {
			covered += b.Docs
		}
		if covered != want {
			t.Fatalf("blocks cover %d docs, want %d", covered, want)
		}

		req.Fresh = true
		if code := postJSON(t, ts, "/v1/resolve/incremental", req, &fresh); code != http.StatusOK {
			t.Fatalf("fresh resolve: status %d", code)
		}
		if len(final.Blocks) != len(fresh.Blocks) {
			t.Fatalf("final has %d blocks, fresh %d", len(final.Blocks), len(fresh.Blocks))
		}
		for i := range final.Blocks {
			if final.Blocks[i].Name != fresh.Blocks[i].Name || !equalInts(final.Blocks[i].Labels, fresh.Blocks[i].Labels) {
				t.Errorf("block %d: incremental %q %v != fresh %q %v", i,
					final.Blocks[i].Name, final.Blocks[i].Labels,
					fresh.Blocks[i].Name, fresh.Blocks[i].Labels)
			}
		}
	}
}
