package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/simfn"
	"repro/internal/swoosh"
)

// BaselineComparison pits the paper's framework (C10) against the R-Swoosh
// generic entity-resolution baseline (reference [7]) on the WWW'05 dataset.
// R-Swoosh's match predicate thresholds are trained per block from the same
// training sample the framework sees (term-cosine and concept-cosine
// thresholds via the framework's threshold learner; two shared entity
// mentions as the entity path), so the comparison is information-fair.
func BaselineComparison(ctx context.Context, cfg Config) ([]AblationResult, error) {
	pd, err := www05(ctx, cfg)
	if err != nil {
		return nil, err
	}

	res, err := pd.average(ctx, cfg, cfg.options(),
		namedStrategy{"framework-C10", bestAnyCriterion(simfn.SubsetI10)},
		namedStrategy{"rswoosh-baseline", rswoosh})
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline: %w", err)
	}
	return res, nil
}

// rswoosh is R-Swoosh as a strategy: it plugs into the pipeline's combine
// + cluster stage like any other, reads the analysis' training sample for
// its thresholds and resolves the prepared block directly.
func rswoosh(a *core.Analysis) (*core.Resolution, error) {
	block := a.Prepared.Block
	termTh := trainedThreshold(a, "F8")
	conceptTh := trainedThreshold(a, "F1")
	records := swoosh.FromBlock(block)
	resolved, err := swoosh.RSwoosh(records, swoosh.ThresholdMatch(termTh, conceptTh, 2))
	if err != nil {
		return nil, err
	}
	return &core.Resolution{Labels: swoosh.Labels(resolved, len(block.Docs)), Source: "rswoosh"}, nil
}

// trainedThreshold learns a link threshold for one similarity function from
// the analysis' training pairs.
func trainedThreshold(a *core.Analysis, funcID string) float64 {
	m := a.Prepared.Matrices[funcID]
	if m == nil {
		return 0.5
	}
	return core.LearnThreshold(a.Train.Values(m), a.Train.Links)
}
