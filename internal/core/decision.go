package core

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/ergraph"
	"repro/internal/regions"
	"repro/internal/simfn"
	"repro/internal/stats"
)

// CriterionKind identifies a decision criterion Dj: how a weighted
// similarity graph G_w^fi is turned into an unweighted decision graph G_Dj.
type CriterionKind int

const (
	// ThresholdCriterion links pairs whose similarity exceeds the trained
	// threshold.
	ThresholdCriterion CriterionKind = iota
	// EqualBinsCriterion links pairs whose similarity falls in an
	// equal-width region with link accuracy >= 0.5.
	EqualBinsCriterion
	// KMeansCriterion is EqualBinsCriterion with k-means regions fitted to
	// the training value distribution.
	KMeansCriterion
)

// String returns the criterion label used in reports.
func (k CriterionKind) String() string {
	switch k {
	case ThresholdCriterion:
		return "threshold"
	case EqualBinsCriterion:
		return "regions-equal"
	case KMeansCriterion:
		return "regions-kmeans"
	default:
		return "unknown"
	}
}

// AllCriteria lists every decision criterion, the Dj set of Algorithm 1.
var AllCriteria = []CriterionKind{ThresholdCriterion, EqualBinsCriterion, KMeansCriterion}

// DecisionGraph is one G_{i,Dj}: the decision graph of similarity function
// i under criterion Dj, with its training-estimated accuracy acc(G_{i,Dj}).
type DecisionGraph struct {
	// FuncID is the similarity function ("F3").
	FuncID string
	// Criterion is the decision criterion used.
	Criterion CriterionKind
	// Graph holds an edge for every pair decided equivalent.
	Graph *ergraph.Graph
	// TrainAccuracy is the fraction of training pairs the graph decides
	// correctly — the acc(G_{i,Dj}) estimate used for combination.
	TrainAccuracy float64
	// Calibration is |closure link rate − training link rate|, the
	// secondary selection signal: among graphs tied on training accuracy,
	// the one whose overall linking rate matches the training base rate is
	// the better calibrated one.
	Calibration float64
	// Threshold is the trained threshold (ThresholdCriterion only).
	Threshold float64
	// Estimate is the fitted region-accuracy estimate (region criteria
	// only; nil for ThresholdCriterion).
	Estimate *regions.AccuracyEstimate
}

// Label renders "F3/threshold" style identifiers.
func (d *DecisionGraph) Label() string {
	return d.FuncID + "/" + d.Criterion.String()
}

// sample is one function's training values, read from its matrix once and
// sorted once for the three criteria fitted on them, and the workspace they
// are fitted in.
type sample struct {
	// values are the training pairs' similarities, parallel to
	// Training.Pairs.
	values []float64
	// order is regions.Ascending(values).
	order []int32
	ws    *Workspace
}

// newSample reads the sample into the memory of the training's workspace,
// or of a fresh one; it is valid until that workspace's next newSample.
func newSample(train *Training, m *simfn.Matrix) sample {
	ws := train.ws
	if ws == nil {
		ws = new(Workspace)
	}
	ws.values = train.appendValues(ws.values[:0], m)
	return sample{values: ws.values, order: ws.regions.Ascending(ws.values), ws: ws}
}

// buildDecisionGraph fits one criterion to a function's training sample and
// applies it to the function's similarity matrix, in the sample's
// workspace: the graph's rows are carved from its arena. TrainAccuracy —
// the acc(G_{i,Dj}) estimate driving best-graph selection — scores the
// graph's transitive closure on the training sample (see the comment
// below).
func buildDecisionGraph(funcID string, crit CriterionKind, m *simfn.Matrix,
	train *Training, s sample, regionK int) (*DecisionGraph, error) {

	ws := s.ws
	dg := &DecisionGraph{FuncID: funcID, Criterion: crit}
	var err error
	switch crit {
	case ThresholdCriterion:
		dg.Threshold = learnThreshold(s.values, train.Links, s.order)
		dg.Graph = thresholdGraph(ws.graphs.NewGraph(m.Len()), m, dg.Threshold)
	case EqualBinsCriterion:
		bins := regions.NewEqualWidthBins(regionK)
		if dg.Estimate, err = regions.EstimateAccuracy(bins, s.values, train.Links); err == nil {
			dg.Graph = binsGraph(ws.graphs.NewGraph(m.Len()), m, bins, dg.Estimate.Linked)
		}
	case KMeansCriterion:
		var km *regions.KMeans1D
		if km, err = ws.regions.FitKMeans1DOrdered(s.values, s.order, regionK); err == nil {
			if dg.Estimate, err = regions.EstimateAccuracy(km, s.values, train.Links); err == nil {
				linked := dg.Estimate.Linked
				dg.Graph = spansGraph(ws.graphs.NewGraph(m.Len()), m, km.Spans(linked), linked[len(linked)-1])
			}
		}
	default:
		err = fmt.Errorf("core: unknown criterion %d", crit)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", funcID, crit, err)
	}

	// acc(G_{i,Dj}) is estimated on the training sample, as in the paper
	// ("we also use accuracy estimations acc(G_{i,Dj}), based on the
	// training set"). Two refinements over raw pair accuracy:
	//
	//  1. Accuracy is measured after transitive closure, not on the raw
	//     edge decisions — the final resolution is the closure, and a
	//     graph whose few wrong edges chain whole groups together is far
	//     worse than its raw pair accuracy suggests.
	//  2. The pair accuracy is blended with the Fp-measure of the closure
	//     restricted to the training documents, so selection tracks the
	//     cluster-quality objective the system is evaluated on, not only
	//     the pair agreement (which favours over-conservative graphs on
	//     fragmented blocks).
	//
	// (2-fold cross-validation of the raw decisions was evaluated as an
	// alternative; its fold noise on ~45-pair samples made selection
	// strictly worse.)
	closure := ws.closure.Components(dg.Graph)
	correct, positives := 0, 0
	for i, p := range train.Pairs {
		if (closure[p[0]] == closure[p[1]]) == train.Links[i] {
			correct++
		}
		if train.Links[i] {
			positives++
		}
	}
	if len(train.Pairs) > 0 {
		pairAcc := float64(correct) / float64(len(train.Pairs))
		dg.TrainAccuracy = (pairAcc + ws.trainingFp(closure, train)) / 2
		baseRate := float64(positives) / float64(len(train.Pairs))
		dg.Calibration = absDiff(ws.closureLinkRate(closure), baseRate)
	}
	return dg, nil
}

// trainingFp computes the Fp-measure (harmonic mean of purity and inverse
// purity) of the clustering restricted to the training documents, against
// their known labels.
func (ws *Workspace) trainingFp(closure []int, train *Training) float64 {
	ws.pred = ws.pred[:0]
	for _, d := range train.Docs {
		ws.pred = append(ws.pred, closure[d])
	}
	return ws.countedFp(ws.pred, train.DocTruth)
}

// countedFp is eval.FpMeasure(pred, truth), and 0 where that errs, counted
// in slices instead of maps: the labels become dense cluster and class IDs,
// their overlaps a cluster × class table, and each purity the sum of its
// rows' or columns' maxima — the integer totals FpMeasure reaches, divided
// by the same n, so the result has its bits. The tables are the
// workspace's, the overlap table cleared before it is counted.
func (ws *Workspace) countedFp(pred, truth []int) float64 {
	n := len(pred)
	if n == 0 || n != len(truth) {
		return 0
	}
	ws.ids = slices.Grow(ws.ids[:0], 2*n)[:2*n]
	cluster, class := ws.ids[:n], ws.ids[n:]
	clusters, classes := denseIDs(cluster, pred), denseIDs(class, truth)
	ws.overlap = slices.Grow(ws.overlap[:0], clusters*classes)[:clusters*classes]
	overlap := ws.overlap
	clear(overlap)
	for i := range cluster {
		overlap[cluster[i]*classes+class[i]]++
	}
	purity, inverse := 0, 0
	for c := 0; c < clusters; c++ {
		purity += slices.Max(overlap[c*classes : (c+1)*classes])
	}
	for k := 0; k < classes; k++ {
		best := 0
		for c := 0; c < clusters; c++ {
			best = max(best, overlap[c*classes+k])
		}
		inverse += best
	}
	return stats.Harmonic(float64(purity)/float64(n), float64(inverse)/float64(n))
}

// denseIDs writes to ids, parallel to labels, each label's ID — the number
// of distinct labels before its first occurrence — and returns how many
// distinct labels there are. It scans the labels before each one, which
// suits the few dozen training documents of a block.
func denseIDs(ids, labels []int) int {
	distinct := 0
	for i, l := range labels {
		if j := slices.Index(labels[:i], l); j >= 0 {
			ids[i] = ids[j]
		} else {
			ids[i] = distinct
			distinct++
		}
	}
	return distinct
}

// closureLinkRate returns the fraction of all pairs the clustering places
// together, computed from component sizes.
func (ws *Workspace) closureLinkRate(labels []int) float64 {
	n := len(labels)
	if n < 2 {
		return 0
	}
	// Labels are dense, and the sum runs over exact integers, so its order
	// does not matter.
	ws.sizes = slices.Grow(ws.sizes[:0], n)[:n]
	sizes := ws.sizes
	clear(sizes)
	for _, l := range labels {
		sizes[l]++
	}
	var together float64
	for _, s := range sizes {
		together += float64(s) * float64(s-1) / 2
	}
	total := float64(n) * float64(n-1) / 2
	return together / total
}

// matrixRows iterates over m one row slice of m.Values() at a time: row i
// holds the cells (i, i+1) … (i, n−1), so its cell q is the pair
// (i, i+1+q). The graph builders below test each cell inline.
func matrixRows(m *simfn.Matrix) iter.Seq2[int, []float64] {
	return func(yield func(int, []float64) bool) {
		vals := m.Values()
		for i := 0; i+1 < m.Len(); i++ {
			w := m.Len() - 1 - i
			if !yield(i, vals[:w]) {
				return
			}
			vals = vals[w:]
		}
	}
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

// binsGraph links in g, edgeless on m's documents, every pair whose
// similarity falls in an equal-width region the estimate links.
func binsGraph(g *ergraph.Graph, m *simfn.Matrix, bins *regions.EqualWidthBins, linked []bool) *ergraph.Graph {
	for i, row := range matrixRows(m) {
		for q, v := range row {
			if linked[bins.Region(v)] {
				g.Link(i, i+1+q)
			}
		}
	}
	return g
}

// spansGraph links in g, edgeless on m's documents, every pair whose
// similarity lies in one of the spans of linked k-means regions; a NaN
// similarity, which falls in the last region and in no span, is linked when
// that region is.
func spansGraph(g *ergraph.Graph, m *simfn.Matrix, spans []regions.Span, nanLinked bool) *ergraph.Graph {
	for i, row := range matrixRows(m) {
		for q, v := range row {
			link := nanLinked
			if v == v {
				link = false
				for _, s := range spans {
					if !(s.Lo >= v) && s.Hi >= v {
						link = true
						break
					}
				}
			}
			if link {
				g.Link(i, i+1+q)
			}
		}
	}
	return g
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// LinkConfidence returns the graph's estimated probability that the pair
// (i, j) with similarity v is a link: the region link probability for
// region criteria, or a two-sided threshold confidence for the threshold
// criterion (its overall training accuracy on the side it decided).
func (d *DecisionGraph) LinkConfidence(v float64) float64 {
	if d.Estimate != nil {
		return d.Estimate.LinkProbability(v)
	}
	// Threshold graphs: approximate the link probability by the graph's
	// training accuracy for "link" decisions and its complement otherwise.
	if v >= d.Threshold {
		return d.TrainAccuracy
	}
	return 1 - d.TrainAccuracy
}
