// Package core implements the paper's entity-resolution framework
// (Section IV, Algorithm 1): per-function similarity graphs over a block,
// threshold and region-accuracy decision criteria learned from a small
// training sample, combination of the per-function decision graphs (best-
// graph selection, weighted average, majority vote), and a final clustering
// step (transitive closure or correlation clustering).
package core

import (
	"fmt"
	"strings"

	"repro/internal/simfn"
)

// ClusteringMethod selects Algorithm 1's final clustering step.
type ClusteringMethod int

const (
	// TransitiveClosure clusters by connected components of the combined
	// graph, the paper's primary implementation.
	TransitiveClosure ClusteringMethod = iota
	// CorrelationClustering runs pivot + local-search correlation
	// clustering, the alternative the paper experimented with.
	CorrelationClustering
)

// String returns the method label.
func (m ClusteringMethod) String() string {
	switch m {
	case TransitiveClosure:
		return "transitive-closure"
	case CorrelationClustering:
		return "correlation-clustering"
	default:
		return "unknown"
	}
}

// ClusteringNames are the accepted ParseClusteringMethod spellings, in
// display order for CLI/API usage messages.
var ClusteringNames = []string{"closure", "correlation"}

// ParseClusteringMethod maps a CLI/API name to a clustering method. Unknown
// names return an error listing every valid spelling.
func ParseClusteringMethod(name string) (ClusteringMethod, error) {
	switch name {
	case "closure":
		return TransitiveClosure, nil
	case "correlation":
		return CorrelationClustering, nil
	default:
		return 0, fmt.Errorf("core: unknown clustering %q (valid: %s)",
			name, strings.Join(ClusteringNames, ", "))
	}
}

// Options configures a Resolver. The zero value is not valid; use
// DefaultOptions as a base.
type Options struct {
	// FunctionIDs selects the similarity functions ("F1".."F10").
	FunctionIDs []string
	// TrainFraction is the fraction of each block's documents revealed as
	// the labeled training sample (the paper uses 10%).
	TrainFraction float64
	// RegionK is the number of regions for both equal-width bins and
	// k-means partitioning (the paper shows k-means regions with ~10
	// clusters in Figure 1).
	RegionK int
	// Clustering is the final clustering step.
	Clustering ClusteringMethod
	// Seed is the base run seed. The pipeline derives each block's run
	// seed from it (stats.SplitSeedN by block position in Run,
	// stats.SplitSeed by block fingerprint in RunIncremental), and
	// ResolveCtx passes it to Prepared.Run as it is. A run seed draws the
	// training sample and, under CorrelationClustering, the pivot order.
	Seed int64
}

// DefaultOptions mirrors the paper's experimental setup: all ten functions,
// 10% training, 10 regions, transitive closure.
func DefaultOptions() Options {
	return Options{
		FunctionIDs:   simfn.SubsetI10,
		TrainFraction: 0.10,
		RegionK:       10,
		Clustering:    TransitiveClosure,
		Seed:          1,
	}
}

// Validate reports the first reason New would reject the options, so a
// caller holding state of its own can refuse a bad configuration before
// touching it.
func (o *Options) Validate() error {
	if len(o.FunctionIDs) == 0 {
		return fmt.Errorf("core: no similarity functions selected")
	}
	if o.TrainFraction <= 0 || o.TrainFraction >= 1 {
		return fmt.Errorf("core: train fraction %v out of (0,1)", o.TrainFraction)
	}
	if o.RegionK < 2 {
		return fmt.Errorf("core: region count %d < 2", o.RegionK)
	}
	switch o.Clustering {
	case TransitiveClosure, CorrelationClustering:
	default:
		return fmt.Errorf("core: unknown clustering method %d", o.Clustering)
	}
	return nil
}
