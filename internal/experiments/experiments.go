// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) over the synthetic datasets: Figure 1 (per-region
// accuracy of a similarity function), Figures 2 and 3 (per-function vs
// combined performance on WWW'05 and WePS), Table II (threshold-only vs
// accuracy-criterion vs weighted-average combinations) and Table III
// (per-name Fp of every function). Both cmd/experiments and the benchmark
// suite call into this package.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/simfn"
	"repro/internal/stats"
)

// Config parameterizes an experiment run, mirroring the paper's setup.
type Config struct {
	// Seed drives dataset generation and training-sample draws.
	Seed int64
	// Runs is the number of independent training draws averaged (the
	// paper repeats each experiment for 5 runs).
	Runs int
	// TrainFraction is the labeled fraction (the paper uses 10%).
	TrainFraction float64
	// RegionK is the number of accuracy-estimation regions.
	RegionK int
}

// DefaultConfig is the paper's setup: 5 runs, 10% training, 10 regions.
func DefaultConfig() Config {
	return Config{Seed: 2010, Runs: 5, TrainFraction: 0.10, RegionK: 10}
}

// QuickConfig is a reduced setup for tests: fewer runs over the same data.
func QuickConfig() Config {
	return Config{Seed: 2010, Runs: 2, TrainFraction: 0.10, RegionK: 10}
}

func (c Config) options() core.Options {
	opts := core.DefaultOptions()
	opts.TrainFraction = c.TrainFraction
	opts.RegionK = c.RegionK
	return opts
}

// runSeeds derives the training seed of (run, block), matching the paper's
// independent draws across runs and names.
func (c Config) runSeeds() func(run, block int) int64 {
	seed := c.Seed
	return func(run, block int) int64 { return stats.SplitSeedN(seed, run*1000+block) }
}

// preparedDataset caches the expensive per-collection preparation so the
// run loop only redraws training samples.
type preparedDataset struct {
	dataset  *corpus.Dataset
	prepared []*core.Prepared
	truths   [][]int
}

func prepareDataset(ctx context.Context, cfg Config, d *corpus.Dataset) (*preparedDataset, error) {
	r, err := core.New(cfg.options())
	if err != nil {
		return nil, err
	}
	// The paper blocks by exact person name, so each per-name collection
	// is one block, prepared as it is. PrepareAllCtx prepares the
	// independent collections concurrently, so the Figure 2/3 and Table
	// II/III drivers saturate the machine.
	prepared, err := r.PrepareAllCtx(ctx, d.Collections)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	truths := make([][]int, len(d.Collections))
	for i, col := range d.Collections {
		truths[i] = col.GroundTruth()
	}
	return &preparedDataset{dataset: d, prepared: prepared, truths: truths}, nil
}

// www05 generates and prepares the synthetic WWW'05 dataset.
func www05(ctx context.Context, cfg Config) (*preparedDataset, error) {
	d, err := corpus.WWW05Profile().Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return prepareDataset(ctx, cfg, d)
}

// wepsACL generates the synthetic WePS dataset and keeps the 10 reported
// ACL-style names.
func wepsACL(ctx context.Context, cfg Config) (*preparedDataset, error) {
	d, err := corpus.WePSProfile().Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return prepareDataset(ctx, cfg, d.Subset(corpus.WePSACLNames))
}

// strategy evaluates one resolution strategy on one analysis — the
// pipeline's combine + cluster stage.
type strategy = pipeline.Strategy

// averageStrategy runs a strategy over all collections and runs, returning
// the macro-averaged metrics.
func (pd *preparedDataset) averageStrategy(ctx context.Context, cfg Config, s strategy) (eval.Result, error) {
	return pipeline.AverageRuns(ctx, pd.prepared, pd.truths, cfg.Runs, cfg.runSeeds(), cfg.options(), s)
}

// Strategy constructors shared by Table II and the figures; one function
// alone is the pool of one, bestThreshold([]string{id}).

func bestThreshold(ids []string) strategy {
	return func(a *core.Analysis) (*core.Resolution, error) {
		return a.BestOver(ids, core.ThresholdCriterion)
	}
}

func bestAnyCriterion(ids []string) strategy {
	return func(a *core.Analysis) (*core.Resolution, error) {
		return a.BestOver(ids, core.AllCriteria...)
	}
}

func weightedAverage(ids []string) strategy {
	return func(a *core.Analysis) (*core.Resolution, error) {
		return a.WeightedAverageOver(ids)
	}
}

// allFunctionIDs is the full Table I set.
var allFunctionIDs = simfn.SubsetI10
