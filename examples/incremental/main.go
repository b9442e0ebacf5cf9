// Incremental: ingest a growing corpus into a store and re-resolve only
// the blocks whose membership changed.
//
// Documents arrive from a crawl in batches, appended to a store — the
// same append `ersolve serve`'s POST /v1/collections makes before it
// answers. After each batch, RunIncremental diffs the block
// membership against what the previous run committed and re-prepares only
// the dirty blocks; at the end the clusters are compared against one full
// resolution of the union, the equivalence the test harness pins for every
// blocking scheme × strategy × clustering method.
//
// Run with:
//
//	go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/store"
)

func main() {
	// Three person-name collections; "smith" and "cohen" are fully crawled
	// up front, "rivera" keeps growing.
	var full []*corpus.Collection
	for i, name := range []string{"smith", "cohen", "rivera"} {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: name, NumDocs: 30, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(70 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		full = append(full, col)
	}

	docs := store.NewMemStore()

	// Batch 1: everything except rivera's last 10 pages. Batch 2: the rest.
	batches := [][]*corpus.Collection{
		{full[0], full[1], {Name: "rivera", Docs: full[2].Docs[:20], NumPersonas: 3}},
		{{Name: "rivera", Docs: full[2].Docs[20:], NumPersonas: 3}},
	}

	pl, err := pipeline.New(pipeline.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var prev committed
	var last *pipeline.IncrementalResult
	for i, batch := range batches {
		if _, err := docs.Append(batch); err != nil {
			log.Fatalf("ingest failed: %v", err)
		}

		cols, version := docs.Snapshot()
		inc, err := pl.RunIncremental(ctx, cols, prev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d (store v%d): %d blocks, %d prepared, %d reused\n",
			i+1, version, inc.Stats.Blocks, inc.Stats.Prepared, inc.Stats.Reused)
		prev, last = commit(inc), inc
	}

	// The equivalence the harness pins: the final incremental state equals
	// one full resolution of everything.
	cols, _ := docs.Snapshot()
	fullRun, err := pl.RunIncremental(ctx, cols, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range fullRun.Results {
		same := fmt.Sprint(last.Results[i].Resolution.Labels) == fmt.Sprint(res.Resolution.Labels)
		fmt.Printf("  %-8s %2d pages -> %2d entities, incremental == full: %v\n",
			res.Block.Name, len(res.Block.Docs), res.Resolution.NumEntities(), same)
	}
	fmt.Println("\nOnly \"rivera\" was re-prepared in batch 2; \"smith\" and \"cohen\"")
	fmt.Println("reused their batch-1 preparation and clustering. The same flow runs")
	fmt.Println("over HTTP: POST /v1/collections → GET /v1/jobs/{id} → POST")
	fmt.Println("/v1/resolve/incremental.")
}

// committed is the previous run's blocks by membership fingerprint: the
// pipeline.CommittedRun contract the server's serving index implements too.
type committed map[uint64]pipeline.Result

// commit keys a run's results by their blocks' fingerprints.
func commit(inc *pipeline.IncrementalResult) committed {
	c := make(committed, len(inc.Results))
	for i, fp := range inc.Fingerprints {
		c[fp] = inc.Results[i]
	}
	return c
}

// Committed implements pipeline.CommittedRun.
func (c committed) Committed(fp uint64) (*core.Resolution, *eval.Result, bool) {
	r, ok := c[fp]
	return r.Resolution, r.Score, ok
}
