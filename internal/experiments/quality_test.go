package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/simfn"
)

// qualityFile is the committed quality gate, at the repository root.
const qualityFile = "../../QUALITY.json"

// quality is the layout of QUALITY.json: the numbers `experiments -quick`
// prints for every paper artifact, keyed artifact → row → column, and the
// configuration and tolerance they are compared at. A change that moves one
// of them must regenerate the file and say why.
type quality struct {
	Config    Config                                   `json:"config"`
	Tolerance float64                                  `json:"tolerance"`
	Results   map[string]map[string]map[string]float64 `json:"results"`
}

// regenerateQuality runs every artifact of cmd/experiments -quick: Figure 1's
// region accuracies, Figures 2 and 3, Tables II and III, the ablations and
// the R-Swoosh baseline.
func regenerateQuality(ctx context.Context, cfg Config) (*quality, error) {
	q := &quality{Config: cfg, Tolerance: 1e-9, Results: map[string]map[string]map[string]float64{}}

	f1, err := Figure1(ctx, cfg)
	if err != nil {
		return nil, err
	}
	fig1 := map[string]map[string]float64{}
	for r := range f1.Accuracy {
		fig1[fmt.Sprintf("region %d", r)] = map[string]float64{
			"upper": f1.Boundaries[r], "accuracy": f1.Accuracy[r], "support": float64(f1.Support[r]),
		}
	}
	q.Results["fig1"] = fig1

	for name, figure := range map[string]func(context.Context, Config) (*FunctionFigure, error){"fig2": Figure2, "fig3": Figure3} {
		f, err := figure(ctx, cfg)
		if err != nil {
			return nil, err
		}
		q.Results[name] = tableResults(f.Table)
	}
	for name, table := range map[string]func(context.Context, Config) (*eval.Table, error){"table2": TableII, "table3": TableIII} {
		t, err := table(ctx, cfg)
		if err != nil {
			return nil, err
		}
		q.Results[name] = tableResults(t)
	}

	ablations := map[string]func() ([]AblationResult, error){
		"ablation/criteria pools": func() ([]AblationResult, error) { return AblationRegionScheme(ctx, cfg) },
		"ablation/region count":   func() ([]AblationResult, error) { return AblationRegionK(ctx, cfg, []int{5, 10, 15}) },
		"ablation/clustering":     func() ([]AblationResult, error) { return AblationClustering(ctx, cfg) },
		"ablation/training":       func() ([]AblationResult, error) { return AblationTrainFraction(ctx, cfg, []float64{0.05, 0.10, 0.20}) },
		"ablation/combination":    func() ([]AblationResult, error) { return AblationCombination(ctx, cfg) },
		"baseline":                func() ([]AblationResult, error) { return BaselineComparison(ctx, cfg) },
	}
	for name, run := range ablations {
		res, err := run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows := map[string]map[string]float64{}
		for _, r := range res {
			rows[r.Name] = map[string]float64{"Fp": r.Score.Fp, "F": r.Score.F, "Rand": r.Score.Rand}
		}
		q.Results[name] = rows
	}
	return q, nil
}

func tableResults(t *eval.Table) map[string]map[string]float64 {
	rows := map[string]map[string]float64{}
	for _, row := range t.RowLabels() {
		rows[row] = map[string]float64{}
		for _, col := range t.Columns() {
			if v, ok := t.Get(row, col); ok {
				rows[row][col] = v
			}
		}
	}
	return rows
}

// paperComparisons checks the comparisons a reader of the paper checks and
// returns one line per comparison that fails: the combined technique beats
// the best single function on every metric of Figures 2 and 3; C ≥ I for
// every function subset and row of Table II; C10 matches or beats the best
// single function for a majority of Table III's names; and the framework
// beats R-Swoosh on every metric.
func paperComparisons(r map[string]map[string]map[string]float64) []string {
	var failed []string
	for _, fig := range []string{"fig2", "fig3"} {
		for _, metric := range figureColumns {
			for _, id := range allFunctionIDs {
				if combined, single := r[fig]["Combined"][metric], r[fig][id][metric]; !(combined > single) {
					failed = append(failed, fmt.Sprintf("%s %s: combined %v does not beat %s %v", fig, metric, combined, id, single))
				}
			}
		}
	}
	for row, cells := range r["table2"] {
		for _, k := range []string{"4", "7", "10"} {
			if c, i := cells["C"+k], cells["I"+k]; !(c >= i) {
				failed = append(failed, fmt.Sprintf("table2 %s: C%s %v < I%s %v", row, k, c, k, i))
			}
		}
	}
	atLeastBest := 0
	for _, cells := range r["table3"] {
		best := math.Inf(-1)
		for _, id := range simfn.SubsetI10 {
			best = max(best, cells[id])
		}
		if cells["C10"] >= best {
			atLeastBest++
		}
	}
	if names := len(r["table3"]); 2*atLeastBest <= names {
		failed = append(failed, fmt.Sprintf("table3: C10 matches the best single function for %d of %d names, not a majority", atLeastBest, names))
	}
	framework, rswoosh := r["baseline"]["framework-C10"], r["baseline"]["rswoosh-baseline"]
	for _, metric := range []string{"Fp", "F", "Rand"} {
		if !(framework[metric] > rswoosh[metric]) {
			failed = append(failed, fmt.Sprintf("baseline %s: framework %v does not beat R-Swoosh %v", metric, framework[metric], rswoosh[metric]))
		}
	}
	slices.Sort(failed)
	return failed
}

// TestQualityGate regenerates the -quick numbers of every paper artifact and
// holds each to QUALITY.json within its tolerance, so a change that is meant
// to be bit-identical cannot move the paper's results unnoticed; and it
// asserts the paper's comparisons on them. On a mismatch it logs the
// regenerated file, for a change that moves the numbers on purpose.
func TestQualityGate(t *testing.T) {
	if testing.Short() {
		t.Skip("every paper artifact")
	}
	raw, err := os.ReadFile(qualityFile)
	if err != nil {
		t.Fatal(err)
	}
	var want quality
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", qualityFile, err)
	}
	if want.Config != QuickConfig() {
		t.Fatalf("%s holds numbers for %+v, not QuickConfig %+v", qualityFile, want.Config, QuickConfig())
	}
	got, err := regenerateQuality(t.Context(), want.Config)
	if err != nil {
		t.Fatal(err)
	}

	moved := 0
	for artifact, rows := range got.Results {
		for row, cells := range rows {
			for col, v := range cells {
				w, ok := want.Results[artifact][row][col]
				if !ok || !(math.Abs(v-w) <= want.Tolerance) {
					moved++
					t.Errorf("%s %s %s = %v, %s has %v (present %v)", artifact, row, col, v, qualityFile, w, ok)
				}
			}
			if len(cells) != len(want.Results[artifact][row]) {
				moved++
				t.Errorf("%s %s: %d columns, %s has %d", artifact, row, len(cells), qualityFile, len(want.Results[artifact][row]))
			}
		}
		if len(rows) != len(want.Results[artifact]) {
			moved++
			t.Errorf("%s: %d rows, %s has %d", artifact, len(rows), qualityFile, len(want.Results[artifact]))
		}
	}
	if len(got.Results) != len(want.Results) {
		moved++
		t.Errorf("%d artifacts, %s has %d", len(got.Results), qualityFile, len(want.Results))
	}
	if moved > 0 {
		regenerated, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d numbers moved; regenerated %s:\n%s", moved, qualityFile, regenerated)
	}

	for _, line := range paperComparisons(got.Results) {
		t.Error(line)
	}
}
