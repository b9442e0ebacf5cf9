// Pipeline: resolve a multi-name dataset through the streaming pipeline
// with a pluggable blocking scheme.
//
// The classic path resolves each ingested collection as its own block (the
// paper's exact-name scheme). This example re-blocks the same documents
// with token blocking over the collection names, so the name variants
// "ann walker" and "walker, ann" land in one merged block, then runs the
// staged pipeline — Block → Prepare → Analyze → Combine → Cluster →
// Report — with a deadline attached, the way `ersolve serve` handles every
// request.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
)

func main() {
	// Two collections about the SAME person set, retrieved under variant
	// spellings of one name, plus an unrelated name.
	var cols []*corpus.Collection
	for i, name := range []string{"ann walker", "walker, ann", "bruno ferrari"} {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: name, NumDocs: 25, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(40 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		cols = append(cols, col)
	}

	for _, scheme := range []string{"exact", "token"} {
		blocking, err := pipeline.ParseBlocking(scheme, "")
		if err != nil {
			log.Fatal(err)
		}
		blocker, err := blocking.FreshBlocker()
		if err != nil {
			log.Fatal(err)
		}
		pl, err := pipeline.New(pipeline.Config{Blocker: blocker, Score: true})
		if err != nil {
			log.Fatal(err)
		}

		// Every run is cancelable: the deadline aborts mid-extraction or
		// mid-matrix if resolution overruns it.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		results, err := pl.Run(ctx, cols)
		cancel()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s blocking -> %d blocks\n", scheme, len(results))
		for _, res := range results {
			fmt.Printf("  %-28s %3d pages -> %d entities (%s)  Fp=%.3f\n",
				res.Block.Name, len(res.Block.Docs), res.Resolution.NumEntities(),
				res.Resolution.Source, res.Score.Fp)
		}
	}

	fmt.Println("\nExact blocking keeps the two spellings of the same name apart;")
	fmt.Println("token blocking shares the token \"walker\"/\"ann\" and merges them")
	fmt.Println("into one block, letting the similarity stage see the cross-variant")
	fmt.Println("pairs. The same Config drives ersolve, the experiment drivers and")
	fmt.Println("the /v1/resolve service.")
}
