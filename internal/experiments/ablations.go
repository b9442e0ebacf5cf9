package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/simfn"
)

// Ablations quantify the design choices DESIGN.md calls out: the region
// scheme, the region count k, the final clustering step, the training
// fraction, and the combination method. Each ablation runs the full
// pipeline on the WWW'05 dataset with exactly one knob varied.

// AblationResult is one configuration's macro-averaged score.
type AblationResult struct {
	// Name labels the configuration ("k=5", "correlation-clustering", …).
	Name string
	// Score is the macro-averaged dataset result.
	Score eval.Result
}

// AblationRegionScheme compares decision criteria pools: threshold only,
// threshold+equal-width bins, threshold+k-means, and all three (the
// system's default) — isolating what each region scheme contributes over
// the plain threshold.
func AblationRegionScheme(ctx context.Context, cfg Config) ([]AblationResult, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	pool := func(criteria ...core.CriterionKind) strategy {
		return func(a *core.Analysis) (*core.Resolution, error) {
			return a.BestOver(simfn.SubsetI10, criteria...)
		}
	}
	out, err := pd.average(ctx, cfg, cfg.options(),
		namedStrategy{"threshold-only", pool(core.ThresholdCriterion)},
		namedStrategy{"threshold+equal-bins", pool(core.ThresholdCriterion, core.EqualBinsCriterion)},
		namedStrategy{"threshold+kmeans", pool(core.ThresholdCriterion, core.KMeansCriterion)},
		namedStrategy{"all-criteria", pool(core.AllCriteria...)})
	if err != nil {
		return nil, fmt.Errorf("experiments: criteria pools: %w", err)
	}
	return out, nil
}

// AblationRegionK varies the region count k for both region schemes.
func AblationRegionK(ctx context.Context, cfg Config, ks []int) ([]AblationResult, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, k := range ks {
		opts := cfg.options()
		opts.RegionK = k
		res, err := pd.average(ctx, cfg, opts, namedStrategy{fmt.Sprintf("k=%d", k), bestAnyCriterion(simfn.SubsetI10)})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation k=%d: %w", k, err)
		}
		out = append(out, res...)
	}
	return out, nil
}

// AblationClustering compares transitive closure against correlation
// clustering as Algorithm 1's final step.
func AblationClustering(ctx context.Context, cfg Config) ([]AblationResult, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, m := range []core.ClusteringMethod{core.TransitiveClosure, core.CorrelationClustering} {
		opts := cfg.options()
		opts.Clustering = m
		// Correlation clustering draws its pivot order from the analysis'
		// RNG, so this sweep scores one strategy per analysis.
		res, err := pd.average(ctx, cfg, opts, namedStrategy{m.String(), bestAnyCriterion(simfn.SubsetI10)})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", m, err)
		}
		out = append(out, res...)
	}
	return out, nil
}

// AblationTrainFraction varies the labeled fraction (the paper fixes 10%).
func AblationTrainFraction(ctx context.Context, cfg Config, fractions []float64) ([]AblationResult, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, f := range fractions {
		opts := cfg.options()
		opts.TrainFraction = f
		res, err := pd.average(ctx, cfg, opts, namedStrategy{fmt.Sprintf("train=%.0f%%", f*100), bestAnyCriterion(simfn.SubsetI10)})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation train=%v: %w", f, err)
		}
		out = append(out, res...)
	}
	return out, nil
}

// AblationCombination compares the three combination methods of Section
// IV-B: best-graph selection (the paper's winner), the accuracy-weighted
// average, and plain majority voting.
func AblationCombination(ctx context.Context, cfg Config) ([]AblationResult, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out, err := pd.average(ctx, cfg, cfg.options(),
		namedStrategy{"best-graph", bestAnyCriterion(simfn.SubsetI10)},
		namedStrategy{"weighted-average", weightedAverage(simfn.SubsetI10)},
		namedStrategy{"majority-vote", (*core.Analysis).MajorityVote})
	if err != nil {
		return nil, fmt.Errorf("experiments: combination: %w", err)
	}
	return out, nil
}

// RenderAblation formats ablation results as a table fragment.
func RenderAblation(title string, results []AblationResult) string {
	s := title + "\n"
	for _, r := range results {
		s += fmt.Sprintf("  %-24s Fp=%.4f  F=%.4f  Rand=%.4f\n",
			r.Name, r.Score.Fp, r.Score.F, r.Score.Rand)
	}
	return s
}
