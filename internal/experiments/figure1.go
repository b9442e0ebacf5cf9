package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/regions"
)

// Figure1Result is the data behind Figure 1: the per-region accuracy of
// link existence for similarity function F3 on the "cohen" collection of
// the WWW'05 dataset, with k-means regions.
type Figure1Result struct {
	// FuncID and Name identify the function and collection shown.
	FuncID, Name string
	// Centers are the fitted k-means region centers (region means).
	Centers []float64
	// Boundaries are the region upper boundaries (the dotted lines).
	Boundaries []float64
	// Accuracy is the estimated link accuracy per region.
	Accuracy []float64
	// Support is the training-pair count per region.
	Support []int
	// Variation is max−min accuracy over supported regions, the quantity
	// the paper highlights ("the accuracy values varied significantly").
	Variation float64
}

// Figure1 reproduces Figure 1: fit k-means regions to F3's training
// similarity values on the "cohen" collection and estimate per-region link
// accuracy.
func Figure1(ctx context.Context, cfg Config) (*Figure1Result, error) {
	const funcID, name = "F3", "cohen"
	d, err := corpus.WWW05Profile().Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	sub := d.Subset([]string{name})
	if len(sub.Collections) != 1 {
		return nil, fmt.Errorf("experiments: collection %q missing from WWW'05 profile", name)
	}
	pd, err := prepareDataset(ctx, cfg, sub)
	if err != nil {
		return nil, err
	}
	a, err := pd.prepared[0].Run(cfg.Seed)
	if err != nil {
		return nil, err
	}
	pool := a.GraphsFor([]string{funcID}, core.KMeansCriterion)
	if len(pool) != 1 {
		return nil, fmt.Errorf("experiments: %d %s k-means graphs, want 1", len(pool), funcID)
	}
	est := pool[0].Estimate
	res := &Figure1Result{
		FuncID:     funcID,
		Name:       name,
		Boundaries: est.Part.Boundaries(),
		Accuracy:   est.Accuracy,
		Support:    est.Support,
		Variation:  est.Variation(),
	}
	if km, ok := est.Part.(*regions.KMeans1D); ok {
		res.Centers = km.Centers
	}
	return res, nil
}

// Render draws the figure as a text bar chart: one row per region with its
// value range and accuracy bar, matching the structure of the paper's plot.
func (f *Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: accuracy of link existence per region (%s, name %q, k-means regions)\n", f.FuncID, f.Name)
	lo := 0.0
	for r := range f.Accuracy {
		hi := f.Boundaries[r]
		bar := strings.Repeat("#", int(f.Accuracy[r]*40+0.5))
		fmt.Fprintf(&b, "  region %2d [%.3f, %.3f)  acc=%.3f  n=%-4d %s\n",
			r, lo, hi, f.Accuracy[r], f.Support[r], bar)
		lo = hi
	}
	fmt.Fprintf(&b, "  accuracy variation across supported regions: %.3f\n", f.Variation)
	return b.String()
}
