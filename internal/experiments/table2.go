package experiments

import (
	"context"
	"fmt"

	"repro/internal/eval"
	"repro/internal/simfn"
)

// Table II compares, on both datasets and three metrics, the best
// threshold-only graphs over growing function subsets (I4, I7, I10), the
// best graph over all decision criteria (C4, C7, C10) and the weighted-
// average combination (W), against the numbers reported in the literature.

// tableIIColumns is the paper's column order.
var tableIIColumns = []string{"I4", "I7", "I10", "C4", "C7", "C10", "W"}

// PaperTableII records the values the paper reports (Table II), used by
// EXPERIMENTS.md and the harness output for side-by-side comparison.
var PaperTableII = map[string]map[string]float64{
	"WWW05/Fp-measure": {"I4": 0.8128, "I7": 0.8211, "I10": 0.8232, "C4": 0.8537, "C7": 0.8732, "C10": 0.8774, "W": 0.8371},
	"WWW05/F-measure":  {"I4": 0.7654, "I7": 0.7773, "I10": 0.7822, "C4": 0.8338, "C7": 0.8376, "C10": 0.8438, "W": 0.8168},
	"WWW05/RandIndex":  {"I4": 0.8018, "I7": 0.8109, "I10": 0.8326, "C4": 0.8747, "C7": 0.8814, "C10": 0.8886, "W": 0.8531},
	"WePS/Fp-measure":  {"I4": 0.7270, "I7": 0.7388, "I10": 0.7682, "C4": 0.7560, "C7": 0.7659, "C10": 0.7880, "W": 0.7785},
	"WePS/F-measure":   {"I4": 0.7042, "I7": 0.7042, "I10": 0.7042, "C4": 0.7127, "C7": 0.7231, "C10": 0.7476, "W": 0.7190},
	"WePS/RandIndex":   {"I4": 0.7102, "I7": 0.7102, "I10": 0.7139, "C4": 0.7492, "C7": 0.7531, "C10": 0.7675, "W": 0.7290},
}

// RelatedWork reproduces the paper's literature-comparison cells.
var RelatedWork = map[string]string{
	"WWW05/Fp-measure": "0.864 [20], 0.9000 [19]",
	"WWW05/F-measure":  "0.8000 [17], 0.8 [19]",
	"WePS/Fp-measure":  "0.791 [20], WePS: 0.7800",
}

// TableII reproduces Table II on both synthetic datasets. Rows are keyed
// "dataset/metric" ("WWW05/Fp-measure", …) exactly matching PaperTableII.
func TableII(ctx context.Context, cfg Config) (*eval.Table, error) {
	table := eval.NewTable("Table II: comparison of results", tableIIColumns...)

	www, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := tableIIRows(ctx, cfg, table, www, "WWW05"); err != nil {
		return nil, err
	}
	weps, err := wepsACL(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := tableIIRows(ctx, cfg, table, weps, "WePS"); err != nil {
		return nil, err
	}
	return table, nil
}

// tableIIStrategies are the strategies behind tableIIColumns, in order.
var tableIIStrategies = []namedStrategy{
	{"I4", bestThreshold(simfn.SubsetI4)},
	{"I7", bestThreshold(simfn.SubsetI7)},
	{"I10", bestThreshold(simfn.SubsetI10)},
	{"C4", bestAnyCriterion(simfn.SubsetI4)},
	{"C7", bestAnyCriterion(simfn.SubsetI7)},
	{"C10", bestAnyCriterion(simfn.SubsetI10)},
	{"W", weightedAverage(simfn.SubsetI10)},
}

func tableIIRows(ctx context.Context, cfg Config, table *eval.Table, pd *preparedDataset, dataset string) error {
	cols, err := pd.average(ctx, cfg, cfg.options(), tableIIStrategies...)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", dataset, err)
	}
	// rows[metric][column] accumulated per strategy.
	rows := map[string]map[string]float64{
		"Fp-measure": {}, "F-measure": {}, "RandIndex": {},
	}
	for _, c := range cols {
		rows["Fp-measure"][c.Name] = c.Score.Fp
		rows["F-measure"][c.Name] = c.Score.F
		rows["RandIndex"][c.Name] = c.Score.Rand
	}
	for _, metric := range []string{"Fp-measure", "F-measure", "RandIndex"} {
		table.AddRow(dataset+"/"+metric, rows[metric])
	}
	return nil
}

// TableIIShapeChecks verifies the qualitative claims of Table II on a
// computed table and returns a report line per check: more functions help
// (I4 ≤ I7 ≤ I10, C4 ≤ C7 ≤ C10), accuracy-aware criteria beat thresholds
// (Ck > Ik), and WWW'05 outscores WePS. A small tolerance absorbs run
// noise.
func TableIIShapeChecks(table *eval.Table) []string {
	const tol = 0.01
	var out []string
	check := func(label string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		out = append(out, fmt.Sprintf("%s  %s", status, label))
	}
	get := func(row, col string) float64 {
		v, _ := table.Get(row, col)
		return v
	}
	for _, row := range table.RowLabels() {
		check(fmt.Sprintf("%s: I4 <= I7 <= I10 (monotone functions)", row),
			get(row, "I4") <= get(row, "I7")+tol && get(row, "I7") <= get(row, "I10")+tol)
		check(fmt.Sprintf("%s: C4 <= C7 <= C10 (monotone functions)", row),
			get(row, "C4") <= get(row, "C7")+tol && get(row, "C7") <= get(row, "C10")+tol)
		check(fmt.Sprintf("%s: C beats I per subset (accuracy regions help)", row),
			get(row, "C4") >= get(row, "I4")-tol &&
				get(row, "C7") >= get(row, "I7")-tol &&
				get(row, "C10") >= get(row, "I10")-tol)
	}
	// The cross-dataset ordering is checked on Fp and F only: the synthetic
	// WePS profile is more fragmented than real WePS-2 (10-70 entities per
	// 150 pages), and the Rand index of any reasonable clustering on such
	// blocks is dominated by the overwhelming majority of negative pairs —
	// a known deviation documented in EXPERIMENTS.md.
	for _, metric := range []string{"Fp-measure", "F-measure"} {
		check(fmt.Sprintf("WWW05 > WePS on %s (harder dataset scores lower)", metric),
			get("WWW05/"+metric, "C10") > get("WePS/"+metric, "C10")-tol)
	}
	return out
}
