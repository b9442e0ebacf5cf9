package core

import (
	"fmt"
	"sort"

	"repro/internal/ergraph"
	"repro/internal/simfn"
)

// Combination of multiple functions (Section IV-B). The paper combines the
// per-function decision graphs rather than the raw similarity values,
// because the functions report values with very different distributions.

// SelectBestGraph implements the paper's best-performing combination:
// "estimate the overall accuracy of all G_Dj graphs, and chose the best one
// as G_combined" (dynamic classifier selection). Only graphs whose
// criterion is in allowed are considered; ties break towards the earlier
// graph for determinism. It returns an error when no graph qualifies.
func SelectBestGraph(graphs []*DecisionGraph, allowed ...CriterionKind) (*DecisionGraph, error) {
	permit := make(map[CriterionKind]bool, len(allowed))
	for _, c := range allowed {
		permit[c] = true
	}
	// Selection score: training accuracy softly penalized by
	// miscalibration. A trivial graph (no links, or everything linked) can
	// reach a high training accuracy on skewed blocks while its linking
	// rate is far from the training base rate; the penalty keeps such
	// degenerate graphs from out-ranking genuinely informative ones.
	score := func(g *DecisionGraph) float64 {
		return g.TrainAccuracy - 0.5*g.Calibration
	}
	var best *DecisionGraph
	for _, g := range graphs {
		if !permit[g.Criterion] {
			continue
		}
		if best == nil || score(g) > score(best) {
			best = g
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no decision graph matches the allowed criteria")
	}
	return best, nil
}

// WeightedAverageGraph implements the paper's weighted-average combination
// (column W of Table II): the per-function decision graphs form a
// multigraph whose edges are weighted by the accuracy estimations
// ("estimations of the probability of a link"); each pair's combined score
// is the accuracy-weighted vote mass
//
//	score(i,j) = Σ_f conf_f(i,j) · edge_f(i,j) / |F|
//
// and an optimal threshold for the combined score is trained on the
// training sample. graphs must contain exactly one graph per function (the
// caller picks which criterion represents each function).
func WeightedAverageGraph(graphs []*DecisionGraph, matrices map[string]*simfn.Matrix,
	train *Training) (*ergraph.Graph, float64, error) {

	if len(graphs) == 0 {
		return nil, 0, fmt.Errorf("core: no graphs to combine")
	}
	n := graphs[0].Graph.Len()
	for _, g := range graphs {
		if g.Graph.Len() != n {
			return nil, 0, fmt.Errorf("core: graph size mismatch: %d vs %d", g.Graph.Len(), n)
		}
		if matrices[g.FuncID] == nil {
			return nil, 0, fmt.Errorf("core: missing matrix for %s", g.FuncID)
		}
	}

	// Graph weights: how far each function's decisions rise above chance.
	// Functions whose decision graphs barely beat the base rate contribute
	// almost nothing, so a few noisy functions cannot drown out the
	// reliable ones.
	weights := make([]float64, len(graphs))
	var totalWeight float64
	for k, g := range graphs {
		w := g.TrainAccuracy - 0.5
		if w < 0.01 {
			w = 0.01
		}
		weights[k] = w
		totalWeight += w
	}

	// Combined score matrix: per-pair link confidences of the agreeing
	// graphs, weighted by graph reliability.
	scores := simfn.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for k, g := range graphs {
				if g.Graph.HasEdge(i, j) {
					s += weights[k] * g.LinkConfidence(matrices[g.FuncID].At(i, j))
				}
			}
			scores.Set(i, j, s/totalWeight)
		}
	}

	// Train the combined threshold by sweeping candidates and scoring each
	// resulting graph after transitive closure on the training pairs — the
	// final resolution is the closure, and a threshold that looks optimal
	// on raw pair decisions can chain everything together.
	candidates := thresholdCandidates(train, scores)
	bestThreshold, bestCorrect := 1.0, -1
	for _, cand := range candidates {
		g := thresholdGraph(ergraph.NewGraph(n), scores, cand)
		closure := g.ConnectedComponents()
		correct := 0
		for k, p := range train.Pairs {
			if (closure[p[0]] == closure[p[1]]) == train.Links[k] {
				correct++
			}
		}
		if correct > bestCorrect || (correct == bestCorrect && cand > bestThreshold) {
			bestCorrect = correct
			bestThreshold = cand
		}
	}

	return thresholdGraph(ergraph.NewGraph(n), scores, bestThreshold), bestThreshold, nil
}

// thresholdGraph links in g, edgeless on m's documents, every pair whose
// similarity reaches threshold.
func thresholdGraph(g *ergraph.Graph, m *simfn.Matrix, threshold float64) *ergraph.Graph {
	for i, row := range matrixRows(m) {
		for q, v := range row {
			if v >= threshold {
				g.Link(i, i+1+q)
			}
		}
	}
	return g
}

// thresholdCandidates returns the candidate thresholds for the combined
// score: midpoints between adjacent distinct training-pair scores, plus the
// extremes.
func thresholdCandidates(train *Training, scores *simfn.Matrix) []float64 {
	values := make([]float64, 0, len(train.Pairs))
	for _, p := range train.Pairs {
		values = append(values, scores.At(p[0], p[1]))
	}
	sort.Float64s(values)
	cands := []float64{0}
	for i := 1; i < len(values); i++ {
		if values[i] != values[i-1] {
			cands = append(cands, (values[i]+values[i-1])/2)
		}
	}
	if len(values) > 0 {
		top := values[len(values)-1] + 1e-9
		if top > 1 {
			top = 1
		}
		cands = append(cands, top)
	}
	return cands
}

// MajorityVoteGraph links a pair when strictly more than half of the given
// decision graphs contain the edge — the classifier-fusion baseline from
// the related-work discussion, kept as an ablation target.
func MajorityVoteGraph(graphs []*DecisionGraph) (*ergraph.Graph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: no graphs to combine")
	}
	n := graphs[0].Graph.Len()
	for _, g := range graphs {
		if g.Graph.Len() != n {
			return nil, fmt.Errorf("core: graph size mismatch: %d vs %d", g.Graph.Len(), n)
		}
	}
	combined := ergraph.NewGraph(n)
	need := len(graphs)/2 + 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			votes := 0
			for _, g := range graphs {
				if g.Graph.HasEdge(i, j) {
					votes++
				}
			}
			if votes >= need {
				if err := combined.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return combined, nil
}

// bestPerFunction reduces a graph list to one graph per function: the
// criterion with the highest training accuracy, preserving function order.
func bestPerFunction(graphs []*DecisionGraph) []*DecisionGraph {
	var order []string
	best := make(map[string]*DecisionGraph)
	for _, g := range graphs {
		cur, ok := best[g.FuncID]
		if !ok {
			order = append(order, g.FuncID)
		}
		if !ok || g.TrainAccuracy > cur.TrainAccuracy {
			best[g.FuncID] = g
		}
	}
	out := make([]*DecisionGraph, 0, len(order))
	for _, id := range order {
		out = append(out, best[id])
	}
	return out
}
