package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Strategy is the pipeline's combine + cluster stage: it selects or fuses
// the per-function decision graphs of one analysis and returns the final
// clustering. A strategy is a combinator over a pool of graphs — best-graph
// selection (core.Analysis.BestOver), the accuracy-weighted average
// (WeightedAverageOver) or the majority vote (MajorityVote) — where a nil
// pool of function IDs is every function the analysis built;
// (*core.Analysis).BestAnyCriterion is BestOver(nil, core.AllCriteria...),
// the paper's best-performing combination.
type Strategy func(a *core.Analysis) (*core.Resolution, error)

// StrategyNames are the accepted ParseStrategy spellings, in display order
// for CLI/API usage messages.
var StrategyNames = []string{"best", "threshold", "weighted", "majority"}

// ParseStrategy maps a CLI/API name to its combination over every
// function: "best" to BestAnyCriterion, "threshold" to BestOver(nil,
// core.ThresholdCriterion), "weighted" to WeightedAverageOver(nil) and
// "majority" to MajorityVote. Unknown names return an error listing every
// valid spelling.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "best":
		return (*core.Analysis).BestAnyCriterion, nil
	case "threshold":
		return func(a *core.Analysis) (*core.Resolution, error) {
			return a.BestOver(nil, core.ThresholdCriterion)
		}, nil
	case "weighted":
		return func(a *core.Analysis) (*core.Resolution, error) {
			return a.WeightedAverageOver(nil)
		}, nil
	case "majority":
		return (*core.Analysis).MajorityVote, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown strategy %q (valid: %s)",
			name, strings.Join(StrategyNames, ", "))
	}
}
