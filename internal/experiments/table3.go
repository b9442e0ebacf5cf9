package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/simfn"
	"repro/internal/stats"
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

	for i, p := range pd.prepared {
		name := pd.dataset.Collections[i].Name
		truth := pd.dataset.Collections[i].GroundTruth()
		cells := make(map[string]float64, len(tableIIIColumns))

		for run := 0; run < cfg.Runs; run++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			a, err := p.Run(stats.SplitSeedN(cfg.Seed, run*1000+i))
			if err != nil {
				return nil, err
			}
			for _, id := range simfn.SubsetI10 {
				res, err := a.BestOver([]string{id}, core.ThresholdCriterion)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%s: %w", name, id, err)
				}
				fp, err := eval.FpMeasure(res.Labels, truth)
				if err != nil {
					return nil, err
				}
				cells[id] += fp
			}
			c10, err := a.BestAnyCriterion()
			if err != nil {
				return nil, err
			}
			fp, err := eval.FpMeasure(c10.Labels, truth)
			if err != nil {
				return nil, err
			}
			cells["C10"] += fp

			w, err := a.WeightedAverageOver(nil)
			if err != nil {
				return nil, err
			}
			fp, err = eval.FpMeasure(w.Labels, truth)
			if err != nil {
				return nil, err
			}
			cells["W"] += fp
		}
		for k := range cells {
			cells[k] /= float64(cfg.Runs)
		}
		table.AddRow(name, cells)
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
