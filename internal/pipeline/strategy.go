package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Strategy is the pipeline's combine + cluster stage: it selects or fuses
// the per-function decision graphs of one analysis and returns the final
// clustering. The named strategies are core.Analysis method values
// ((*core.Analysis).BestAnyCriterion, …); custom strategies compose core's
// combination primitives (BestOver, WeightedAverageOver, …).
type Strategy func(a *core.Analysis) (*core.Resolution, error)

// StrategyNames are the accepted ParseStrategy spellings, in display order
// for CLI/API usage messages.
var StrategyNames = []string{"best", "threshold", "weighted", "majority"}

// ParseStrategy maps a CLI/API name to its core.Analysis method: "best" to
// BestAnyCriterion, "threshold" to BestThresholdOnly, "weighted" to
// WeightedAverage and "majority" to MajorityVote. Unknown names return an
// error listing every valid spelling.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "best":
		return (*core.Analysis).BestAnyCriterion, nil
	case "threshold":
		return (*core.Analysis).BestThresholdOnly, nil
	case "weighted":
		return (*core.Analysis).WeightedAverage, nil
	case "majority":
		return (*core.Analysis).MajorityVote, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown strategy %q (valid: %s)",
			name, strings.Join(StrategyNames, ", "))
	}
}
