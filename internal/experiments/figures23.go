package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/eval"
)

// FunctionFigure holds the data of Figure 2 (WWW'05) or Figure 3 (WePS):
// Fp-measure, F-measure and Rand index for each individual similarity
// function (threshold criterion) plus the combined technique (the final
// black column).
type FunctionFigure struct {
	// Title labels the figure.
	Title string
	// Table rows are F1..F10 and "Combined"; columns Fp, F, Rand.
	Table *eval.Table
}

// figureColumns are the three metrics the figures plot.
var figureColumns = []string{"Fp-measure", "F-measure", "RandIndex"}

// Figure2 reproduces Figure 2: per-function and combined performance on
// the whole WWW'05 dataset.
func Figure2(ctx context.Context, cfg Config) (*FunctionFigure, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return functionFigure(ctx, cfg, pd, "Figure 2: WWW results")
}

// Figure3 reproduces Figure 3: per-function and combined performance on
// the WePS dataset (10 ACL-style names).
func Figure3(ctx context.Context, cfg Config) (*FunctionFigure, error) {
	pd, err := wepsACL(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return functionFigure(ctx, cfg, pd, "Figure 3: WEPS results")
}

func functionFigure(ctx context.Context, cfg Config, pd *preparedDataset, title string) (*FunctionFigure, error) {
	var sweep []namedStrategy
	for _, id := range allFunctionIDs {
		sweep = append(sweep, namedStrategy{id, bestThreshold([]string{id})})
	}
	sweep = append(sweep, namedStrategy{"Combined", bestAnyCriterion(allFunctionIDs)})
	bars, err := pd.average(ctx, cfg, cfg.options(), sweep...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", title, err)
	}
	table := eval.NewTable(title, figureColumns...)
	for _, bar := range bars {
		table.AddRow(bar.Name, resultCells(bar.Score))
	}
	return &FunctionFigure{Title: title, Table: table}, nil
}

func resultCells(r eval.Result) map[string]float64 {
	return map[string]float64{
		"Fp-measure": r.Fp,
		"F-measure":  r.F,
		"RandIndex":  r.Rand,
	}
}

// CombinedWins reports, per metric, whether the combined column beats every
// individual function — the headline claim the figures make.
func (f *FunctionFigure) CombinedWins() map[string]bool {
	out := make(map[string]bool, len(figureColumns))
	for _, col := range figureColumns {
		combined, ok := f.Table.Get("Combined", col)
		if !ok {
			continue
		}
		wins := true
		for _, id := range allFunctionIDs {
			if v, ok := f.Table.Get(id, col); ok && v > combined {
				wins = false
				break
			}
		}
		out[col] = wins
	}
	return out
}

// Render draws the figure as grouped text bars, one group per function.
func (f *FunctionFigure) Render() string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	for _, label := range f.Table.RowLabels() {
		fmt.Fprintf(&b, "  %-9s", label)
		for _, col := range figureColumns {
			v, _ := f.Table.Get(label, col)
			fmt.Fprintf(&b, " %s=%.4f", strings.TrimSuffix(col, "-measure"), v)
		}
		v, _ := f.Table.Get(label, "Fp-measure")
		fmt.Fprintf(&b, "  |%s\n", strings.Repeat("#", int(v*40+0.5)))
	}
	return b.String()
}
