// Weps: the WePS-2-style clustering task — resolve the 10 ACL-style names
// of the synthetic WePS dataset and report the paper's measures (Fp,
// pairwise F and Rand) per name, comparing transitive closure against
// correlation clustering as the final step.
//
// Run with:
//
//	go run ./examples/weps
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/stats"
)

func main() {
	dataset, err := corpus.WePSProfile().Generate(2010)
	if err != nil {
		log.Fatal(err)
	}
	acl := dataset.Subset(corpus.WePSACLNames)

	closure, err := core.New(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ccOpts := core.DefaultOptions()
	ccOpts.Clustering = core.CorrelationClustering
	correlation, err := core.New(ccOpts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("name         entities  method                  Fp      F       Rand")
	var fpClosure, fpCorrelation []eval.Result
	for i, col := range acl.Collections {
		truth := col.GroundTruth()
		for _, m := range []struct {
			label    string
			resolver *core.Resolver
			sink     *[]eval.Result
		}{
			{"transitive-closure", closure, &fpClosure},
			{"correlation-cluster", correlation, &fpCorrelation},
		} {
			prep, err := m.resolver.PrepareCtx(context.Background(), col)
			if err != nil {
				log.Fatal(err)
			}
			analysis, err := prep.Run(stats.SplitSeedN(7, i))
			if err != nil {
				log.Fatal(err)
			}
			res, err := analysis.BestAnyCriterion()
			if err != nil {
				log.Fatal(err)
			}
			score, err := eval.Evaluate(res.Labels, truth)
			if err != nil {
				log.Fatal(err)
			}
			*m.sink = append(*m.sink, score)
			fmt.Printf("%-12s %5d     %-20s  %.4f  %.4f  %.4f\n",
				col.Name, res.NumEntities(), m.label, score.Fp, score.F, score.Rand)
		}
	}

	ac := eval.Aggregate(fpClosure)
	acc := eval.Aggregate(fpCorrelation)
	fmt.Printf("\naverage Fp: transitive closure %.4f, correlation clustering %.4f\n", ac.Fp, acc.Fp)
	fmt.Println("(the paper's implementation uses transitive closure; correlation")
	fmt.Println(" clustering is the alternative it reports experimenting with)")
}
