// Webpeople: the WWW'05-style experiment — compare every individual
// similarity function against the combined framework on a whole dataset of
// ambiguous names, demonstrating the paper's headline claim that combining
// accuracy-estimated decision graphs beats any single function.
//
// Run with:
//
//	go run ./examples/webpeople
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/simfn"
	"repro/internal/stats"
)

func main() {
	// The synthetic stand-in for the WWW'05 dataset: 12 ambiguous names,
	// 100 pages each, 2-61 real persons per name.
	dataset, err := corpus.WWW05Profile().Generate(2010)
	if err != nil {
		log.Fatal(err)
	}
	resolver, err := core.New(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	perFunction := make(map[string][]eval.Result)
	var combined []eval.Result

	for i, col := range dataset.Collections {
		prep, err := resolver.PrepareCtx(context.Background(), col)
		if err != nil {
			log.Fatal(err)
		}
		analysis, err := prep.Run(stats.SplitSeedN(2010, i))
		if err != nil {
			log.Fatal(err)
		}
		truth := col.GroundTruth()

		// Each function alone, with its trained threshold.
		for _, id := range simfn.SubsetI10 {
			res, err := analysis.BestOver([]string{id}, core.ThresholdCriterion)
			if err != nil {
				log.Fatal(err)
			}
			score, err := eval.Evaluate(res.Labels, truth)
			if err != nil {
				log.Fatal(err)
			}
			perFunction[id] = append(perFunction[id], score)
		}

		// The framework: best decision graph over all criteria.
		res, err := analysis.BestAnyCriterion()
		if err != nil {
			log.Fatal(err)
		}
		score, err := eval.Evaluate(res.Labels, truth)
		if err != nil {
			log.Fatal(err)
		}
		combined = append(combined, score)
		fmt.Printf("%-10s %3d persons  combined Fp=%.4f  (chose %s)\n",
			col.Name, col.NumPersonas, score.Fp, res.Source)
	}

	fmt.Println("\ndataset averages (Fp / F / Rand):")
	for _, id := range simfn.SubsetI10 {
		avg := eval.Aggregate(perFunction[id])
		fmt.Printf("  %-4s %.4f / %.4f / %.4f\n", id, avg.Fp, avg.F, avg.Rand)
	}
	avg := eval.Aggregate(combined)
	fmt.Printf("  %-4s %.4f / %.4f / %.4f   <-- combined framework\n",
		"ALL", avg.Fp, avg.F, avg.Rand)
}
