package core

import (
	"fmt"
	"sort"

	"repro/internal/ergraph"
	"repro/internal/eval"
	"repro/internal/regions"
	"repro/internal/simfn"
	"repro/internal/stats"
)

// referenceRunWith is the decision stage of Prepared.RunWith as it ran
// before the row scan: the same training draw, then every graph from
// referenceDecisionGraph, function by function, criterion by criterion.
func referenceRunWith(p *Prepared, runSeed int64, opts Options) ([]*DecisionGraph, error) {
	rng := stats.NewRNG(runSeed)
	train, err := NewTraining(p.Block, opts.TrainFraction, rng)
	if err != nil {
		return nil, err
	}
	var out []*DecisionGraph
	for _, f := range p.resolver.funcs {
		for _, crit := range AllCriteria {
			dg, err := referenceDecisionGraph(f.ID, crit, p.Matrices[f.ID], train, opts.RegionK)
			if err != nil {
				return nil, err
			}
			out = append(out, dg)
		}
	}
	return out, nil
}

// buildDecisionGraph is decisionGraphs for one criterion, the form the
// reference and robustness tests build a single graph through.
func buildDecisionGraph(funcID string, crit CriterionKind, m *simfn.Matrix,
	train *Training, s sample, regionK int) (*DecisionGraph, error) {

	dgs, err := decisionGraphs(nil, funcID, []CriterionKind{crit}, m, train, s, regionK)
	if err != nil {
		return nil, err
	}
	return dgs[0], nil
}

// referenceDecisionGraph is buildDecisionGraph as it ran before the row
// scan: the training values read per criterion, the threshold learned by
// referenceLearnThreshold, and every pair decided by a closure over
// m.At(i, j) — v >= threshold, or the region's LinkProbability >= 0.5 —
// and added through AddEdge; the closure's link rate counted in a map and
// its training Fp by eval.FpMeasure.
func referenceDecisionGraph(funcID string, crit CriterionKind, m *simfn.Matrix,
	train *Training, regionK int) (*DecisionGraph, error) {

	values := train.Values(m)
	dg := &DecisionGraph{FuncID: funcID, Criterion: crit}
	var decide func(float64) bool
	switch crit {
	case ThresholdCriterion:
		th := referenceLearnThreshold(values, train.Links)
		dg.Threshold = th
		decide = func(v float64) bool { return v >= th }
	case EqualBinsCriterion, KMeansCriterion:
		var part regions.Partitioner = regions.NewEqualWidthBins(regionK)
		if crit == KMeansCriterion {
			km, err := regions.FitKMeans1D(values, regionK)
			if err != nil {
				return nil, err
			}
			part = km
		}
		est, err := regions.EstimateAccuracy(part, values, train.Links)
		if err != nil {
			return nil, err
		}
		dg.Estimate = est
		decide = func(v float64) bool { return est.LinkProbability(v) >= 0.5 }
	default:
		return nil, fmt.Errorf("unknown criterion %d", crit)
	}

	n := m.Len()
	dg.Graph = ergraph.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if decide(m.At(i, j)) {
				if err := dg.Graph.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}

	closure := dg.Graph.ConnectedComponents()
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
		pred := make([]int, len(train.Docs))
		for i, d := range train.Docs {
			pred[i] = closure[d]
		}
		fp, err := eval.FpMeasure(pred, train.DocTruth)
		if err != nil {
			fp = 0
		}
		dg.TrainAccuracy = (pairAcc + fp) / 2
		sizes := make(map[int]int)
		for _, l := range closure {
			sizes[l]++
		}
		var together float64
		for _, s := range sizes {
			together += float64(s) * float64(s-1) / 2
		}
		rate := 0.0
		if n >= 2 {
			rate = together / (float64(n) * float64(n-1) / 2)
		}
		dg.Calibration = absDiff(rate, float64(positives)/float64(len(train.Pairs)))
	}
	return dg, nil
}

// referenceLearnThreshold is LearnThreshold as it ran before the shared
// sort: its own sort.Slice of (value, link) pairs.
func referenceLearnThreshold(values []float64, links []bool) float64 {
	if len(values) == 0 || len(values) != len(links) {
		return 0.5
	}
	type vl struct {
		v    float64
		link bool
	}
	pairs := make([]vl, len(values))
	for i := range values {
		pairs[i] = vl{values[i], links[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })

	totalPos := 0
	for _, p := range pairs {
		if p.link {
			totalPos++
		}
	}
	bestCorrect := len(pairs) - totalPos
	bestThreshold := min(pairs[len(pairs)-1].v+1e-9, 1)
	posAbove, negAbove := 0, 0
	for i := len(pairs) - 1; i >= 0; {
		j := i
		for j >= 0 && pairs[j].v == pairs[i].v {
			if pairs[j].link {
				posAbove++
			} else {
				negAbove++
			}
			j--
		}
		t := max(pairs[i].v-1e-9, 0)
		if j >= 0 {
			t = (pairs[j].v + pairs[i].v) / 2
		}
		if correct := (len(pairs) - totalPos - negAbove) + posAbove; correct > bestCorrect {
			bestCorrect, bestThreshold = correct, t
		}
		i = j
	}
	return stats.Clamp(bestThreshold, 0, 1)
}
