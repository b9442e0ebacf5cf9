// Quickstart: resolve one ambiguous person name end to end.
//
// The example generates a small synthetic web collection for the name
// "cohen" (40 pages, 4 real persons), runs it through the resolution
// pipeline ersolve serves — blocking, similarity functions, trained
// decision criteria, best-graph combination, transitive closure — and
// prints the discovered entities with their quality against the ground
// truth.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/pipeline"
)

func main() {
	// 1. A document collection: all pages retrieved for one ambiguous
	//    name. Here we synthesize one; corpus.ReadJSON loads real data of
	//    the same shape.
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name:        "cohen",
		NumDocs:     40,
		NumPersonas: 4,
		Noise:       0.5,
		MissingInfo: 0.25,
		Spurious:    0.3,
		Template:    0.25,
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A pipeline with the paper's default setup: one block per name,
	//    all ten similarity functions, 10% training sample, 10 accuracy
	//    regions, the best decision graph, transitive closure. Score asks
	//    it to grade each block against the ground truth the collection
	//    carries (available here because the data is synthetic; on real
	//    collections this needs manual labels).
	pl, err := pipeline.New(pipeline.Config{Score: true})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Resolve: partition the pages so that two pages share a partition
	//    iff they are about the same real person.
	results, err := pl.Run(context.Background(), []*corpus.Collection{col})
	if err != nil {
		log.Fatal(err)
	}
	res := results[0].Resolution

	fmt.Printf("collection %q: %d pages, %d true persons\n",
		col.Name, len(col.Docs), col.NumPersonas)
	fmt.Printf("resolved %d entities using %s\n\n", res.NumEntities(), res.Source)

	// 4. Inspect the clusters.
	clusters := make(map[int][]int)
	for doc, label := range res.Labels {
		clusters[label] = append(clusters[label], doc)
	}
	for label := 0; label < res.NumEntities(); label++ {
		docs := clusters[label]
		if len(docs) > 6 {
			fmt.Printf("  entity %d: %d pages %v...\n", label, len(docs), docs[:6])
		} else {
			fmt.Printf("  entity %d: %d pages %v\n", label, len(docs), docs)
		}
	}

	// 5. The quality the pipeline scored.
	score := results[0].Score
	fmt.Printf("\nquality: Fp=%.4f  F=%.4f  Rand=%.4f\n", score.Fp, score.F, score.Rand)
}
