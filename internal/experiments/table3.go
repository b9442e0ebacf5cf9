package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/simfn"
)

// tableIIIColumns are the paper's Table III columns: every function's
// per-name Fp plus the C10 and W combinations.
var tableIIIColumns = append(append([]string{}, simfn.SubsetI10...), "C10", "W")

// TableIII reproduces Table III: the Fp-measure achieved for each
// individual WWW'05 name by each individual function (threshold criterion),
// by the best-criterion combination (C10) and by the weighted average (W),
// averaged over cfg.Runs training draws.
func TableIII(ctx context.Context, cfg Config) (*eval.Table, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	table := eval.NewTable("Table III: Fp measure for each name in WWW'05", tableIIIColumns...)

	// One sweep per name, on that name's block alone: over one block,
	// AverageRuns' per-draw average is the draw's score, so each cell is
	// the name's Fp summed over the draws and divided by cfg.Runs.
	var strats []strategy
	for _, id := range simfn.SubsetI10 {
		strats = append(strats, bestThreshold([]string{id}))
	}
	strats = append(strats, (*core.Analysis).BestAnyCriterion, weightedAverage(nil))
	seeds := cfg.runSeeds()
	for i, col := range pd.dataset.Collections {
		scores, err := pipeline.AverageRuns(ctx, pd.prepared[i:i+1], pd.truths[i:i+1], cfg.Runs,
			func(run, _ int) int64 { return seeds(run, i) }, cfg.options(), strats...)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", col.Name, err)
		}
		cells := make(map[string]float64, len(tableIIIColumns))
		for c, column := range tableIIIColumns {
			cells[column] = scores[c].Fp
		}
		table.AddRow(col.Name, cells)
	}
	return table, nil
}

// TableIIIShapeChecks verifies the qualitative Table III claims: different
// names are won by different functions (at least 3 distinct winners across
// the 12 names), and C10 matches or beats the best individual function for
// a majority of names.
func TableIIIShapeChecks(table *eval.Table) []string {
	const tol = 0.02
	var out []string
	check := func(label string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		out = append(out, fmt.Sprintf("%s  %s", status, label))
	}

	winners := table.ArgBest("C10", "W")
	distinct := make(map[string]bool)
	for _, w := range winners {
		distinct[w] = true
	}
	check(fmt.Sprintf("distinct per-name winning functions: %d (want >= 3)", len(distinct)),
		len(distinct) >= 3)

	c10AtLeastBest := 0
	for _, name := range table.RowLabels() {
		best := -1.0
		for _, id := range simfn.SubsetI10 {
			if v, ok := table.Get(name, id); ok && v > best {
				best = v
			}
		}
		if c10, ok := table.Get(name, "C10"); ok && c10 >= best-tol {
			c10AtLeastBest++
		}
	}
	check(fmt.Sprintf("C10 >= best individual function for %d/%d names (want majority)",
		c10AtLeastBest, len(table.RowLabels())),
		c10AtLeastBest*2 >= len(table.RowLabels()))
	return out
}
