package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// tinyConfig keeps test runtime low: the shape assertions run on the full
// datasets via the benchmark harness; these tests exercise correctness of
// the experiment plumbing.
func tinyConfig() Config {
	return Config{Seed: 2010, Runs: 1, TrainFraction: 0.10, RegionK: 10}
}

func TestFigure1(t *testing.T) {
	f, err := Figure1(t.Context(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.FuncID != "F3" || f.Name != "cohen" {
		t.Errorf("identifies %s/%s", f.FuncID, f.Name)
	}
	if len(f.Accuracy) == 0 || len(f.Accuracy) != len(f.Support) {
		t.Fatalf("accuracy/support shapes: %d/%d", len(f.Accuracy), len(f.Support))
	}
	if len(f.Boundaries) != len(f.Accuracy) {
		t.Errorf("boundaries = %d, regions = %d", len(f.Boundaries), len(f.Accuracy))
	}
	if f.Boundaries[len(f.Boundaries)-1] != 1 {
		t.Error("last boundary must be 1")
	}
	for r, a := range f.Accuracy {
		if a < 0 || a > 1 {
			t.Errorf("region %d accuracy %v out of range", r, a)
		}
	}
	// The headline claim: accuracy varies significantly across regions.
	if f.Variation < 0.2 {
		t.Errorf("accuracy variation = %v, want >= 0.2", f.Variation)
	}
	if len(f.Centers) == 0 {
		t.Error("k-means centers missing")
	}
	rendered := f.Render()
	if !strings.Contains(rendered, "Figure 1") || !strings.Contains(rendered, "region") {
		t.Error("Render output malformed")
	}
}

func TestFigure2ShapeOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("full-dataset experiment")
	}
	f, err := Figure2(t.Context(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	labels := f.Table.RowLabels()
	if len(labels) != 11 { // F1..F10 + Combined
		t.Fatalf("rows = %v", labels)
	}
	if labels[10] != "Combined" {
		t.Errorf("last row = %q", labels[10])
	}
	for _, label := range labels {
		for _, col := range figureColumns {
			v, ok := f.Table.Get(label, col)
			if !ok || v < 0 || v > 1 {
				t.Errorf("%s/%s = %v, %v", label, col, v, ok)
			}
		}
	}
	// Combined must win Fp: the paper's headline.
	wins := f.CombinedWins()
	if !wins["Fp-measure"] {
		t.Error("combined does not win Fp-measure")
	}
	if !strings.Contains(f.Render(), "Combined") {
		t.Error("Render output malformed")
	}
}

func TestTableIIStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("full-dataset experiment")
	}
	table, err := TableII(t.Context(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := table.RowLabels()
	if len(rows) != 6 {
		t.Fatalf("rows = %v", rows)
	}
	// Every row key must have a paper counterpart.
	for _, row := range rows {
		if _, ok := PaperTableII[row]; !ok {
			t.Errorf("row %q has no paper-reported values", row)
		}
		for _, col := range tableIIColumns {
			v, ok := table.Get(row, col)
			if !ok || v < 0 || v > 1 {
				t.Errorf("%s/%s = %v, %v", row, col, v, ok)
			}
		}
	}
	checks := TableIIShapeChecks(table)
	if len(checks) == 0 {
		t.Fatal("no shape checks produced")
	}
	// With a single run some checks may be noisy; require the bulk to pass.
	pass := 0
	for _, line := range checks {
		if strings.HasPrefix(line, "PASS") {
			pass++
		}
	}
	if pass*3 < len(checks)*2 {
		t.Errorf("only %d/%d shape checks pass:\n%s", pass, len(checks), strings.Join(checks, "\n"))
	}
}

// TestSweepMatchesOneCallPerStrategy pins what lets a sweep analyze each
// training draw once: scoring several strategies on one analysis gives, bit
// for bit, the scores of one AverageRuns call per strategy, because no
// strategy writes to the analysis or, under transitive closure, draws from
// its RNG.
func TestSweepMatchesOneCallPerStrategy(t *testing.T) {
	cfg := QuickConfig()
	d, err := corpus.WWW05Profile().Generate(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := prepareDataset(t.Context(), cfg, d.Subset([]string{"cohen", "mark", "ng"}))
	if err != nil {
		t.Fatal(err)
	}
	sweep := append(append([]namedStrategy{}, tableIIStrategies...),
		namedStrategy{"majority-vote", (*core.Analysis).MajorityVote},
		namedStrategy{"rswoosh-baseline", rswoosh})
	together, err := pd.average(t.Context(), cfg, cfg.options(), sweep...)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sweep {
		alone, err := pd.average(t.Context(), cfg, cfg.options(), s)
		if err != nil {
			t.Fatal(err)
		}
		got, want := together[i].Score, alone[0].Score
		if together[i].Name != s.name ||
			math.Float64bits(got.Fp) != math.Float64bits(want.Fp) ||
			math.Float64bits(got.F) != math.Float64bits(want.F) ||
			math.Float64bits(got.Rand) != math.Float64bits(want.Rand) {
			t.Errorf("%s: in the sweep %q %+v, alone %+v", s.name, together[i].Name, got, want)
		}
	}
}

func TestTableIIIStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("full-dataset experiment")
	}
	table, err := TableIII(t.Context(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := table.RowLabels()
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 names", len(rows))
	}
	for _, row := range rows {
		for _, col := range tableIIIColumns {
			v, ok := table.Get(row, col)
			if !ok || v < 0 || v > 1 {
				t.Errorf("%s/%s = %v, %v", row, col, v, ok)
			}
		}
	}
	checks := TableIIIShapeChecks(table)
	for _, line := range checks {
		if strings.HasPrefix(line, "FAIL") {
			t.Errorf("shape check failed: %s", line)
		}
	}
}

func TestPaperConstantsComplete(t *testing.T) {
	for _, row := range []string{
		"WWW05/Fp-measure", "WWW05/F-measure", "WWW05/RandIndex",
		"WePS/Fp-measure", "WePS/F-measure", "WePS/RandIndex",
	} {
		vals, ok := PaperTableII[row]
		if !ok {
			t.Errorf("missing paper row %q", row)
			continue
		}
		for _, col := range tableIIColumns {
			if _, ok := vals[col]; !ok {
				t.Errorf("paper row %q missing column %q", row, col)
			}
		}
	}
	if len(RelatedWork) == 0 {
		t.Error("related-work constants missing")
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.Runs != 5 || d.TrainFraction != 0.10 || d.RegionK != 10 {
		t.Errorf("DefaultConfig = %+v", d)
	}
	q := QuickConfig()
	if q.Runs >= d.Runs {
		t.Error("QuickConfig should use fewer runs")
	}
	opts := d.options()
	if opts.TrainFraction != d.TrainFraction || opts.RegionK != d.RegionK {
		t.Error("options() does not propagate config")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Figure1(t.Context(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure1(t.Context(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Accuracy) != len(b.Accuracy) {
		t.Fatal("non-deterministic region count")
	}
	for i := range a.Accuracy {
		if a.Accuracy[i] != b.Accuracy[i] {
			t.Fatal("non-deterministic accuracies")
		}
	}
}
