package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/simfn"
)

// buildGraph makes a DecisionGraph over n docs with the given edges and
// metadata, for combination-level unit tests.
func buildGraph(t *testing.T, funcID string, n int, acc float64, edges ...[2]int) *DecisionGraph {
	t.Helper()
	g := ergraph.NewGraph(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return &DecisionGraph{
		FuncID:        funcID,
		Criterion:     ThresholdCriterion,
		Graph:         g,
		TrainAccuracy: acc,
		Threshold:     0.5,
	}
}

// uniformMatrix returns an n×n similarity matrix with every off-diagonal
// value v.
func uniformMatrix(n int, v float64) *simfn.Matrix {
	m := simfn.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestMajorityVoteGraphCounting(t *testing.T) {
	// Edge (0,1) in 2 of 3 graphs → kept; edge (1,2) in 1 of 3 → dropped.
	graphs := []*DecisionGraph{
		buildGraph(t, "F1", 3, 0.9, [2]int{0, 1}),
		buildGraph(t, "F2", 3, 0.9, [2]int{0, 1}, [2]int{1, 2}),
		buildGraph(t, "F3", 3, 0.9),
	}
	combined, err := MajorityVoteGraph(graphs)
	if err != nil {
		t.Fatal(err)
	}
	if !combined.HasEdge(0, 1) {
		t.Error("majority edge dropped")
	}
	if combined.HasEdge(1, 2) {
		t.Error("minority edge kept")
	}
}

func TestWeightedAverageGraphUnanimousHighConfidence(t *testing.T) {
	// Three graphs all agree on edge (0,1) with high confidence; the
	// trained threshold must keep it and reject the never-voted edge (2,3).
	n := 4
	graphs := []*DecisionGraph{
		buildGraph(t, "F1", n, 0.9, [2]int{0, 1}),
		buildGraph(t, "F2", n, 0.9, [2]int{0, 1}),
		buildGraph(t, "F3", n, 0.9, [2]int{0, 1}),
	}
	matrices := map[string]*simfn.Matrix{
		"F1": uniformMatrix(n, 0.8),
		"F2": uniformMatrix(n, 0.8),
		"F3": uniformMatrix(n, 0.8),
	}
	train := &Training{
		Docs:     []int{0, 1, 2, 3},
		DocTruth: []int{0, 0, 1, 2},
		Pairs:    [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
		Links:    []bool{true, false, false, false, false, false},
	}
	combined, threshold, err := WeightedAverageGraph(graphs, matrices, train)
	if err != nil {
		t.Fatal(err)
	}
	if threshold <= 0 || threshold > 1 {
		t.Errorf("threshold = %v", threshold)
	}
	if !combined.HasEdge(0, 1) {
		t.Error("unanimous high-confidence edge dropped")
	}
	if combined.HasEdge(2, 3) {
		t.Error("unvoted edge linked")
	}
}

func TestWeightedAverageGraphDownWeightsNoisyFunction(t *testing.T) {
	// One reliable graph votes for the true link; one chance-level graph
	// votes for a wrong link. The reliable function's weight dominates, so
	// only the true link survives the trained threshold.
	n := 4
	good := buildGraph(t, "F1", n, 0.95, [2]int{0, 1})
	noisy := buildGraph(t, "F2", n, 0.50, [2]int{2, 3})
	matrices := map[string]*simfn.Matrix{
		"F1": uniformMatrix(n, 0.9),
		"F2": uniformMatrix(n, 0.9),
	}
	train := &Training{
		Docs:     []int{0, 1, 2, 3},
		DocTruth: []int{0, 0, 1, 2},
		Pairs:    [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
		Links:    []bool{true, false, false, false, false, false},
	}
	combined, _, err := WeightedAverageGraph([]*DecisionGraph{good, noisy}, matrices, train)
	if err != nil {
		t.Fatal(err)
	}
	if !combined.HasEdge(0, 1) {
		t.Error("reliable vote lost")
	}
	if combined.HasEdge(2, 3) {
		t.Error("chance-level vote won")
	}
}

func TestThresholdCandidatesCoverRange(t *testing.T) {
	n := 3
	scores := simfn.NewMatrix(n)
	scores.Set(0, 1, 0.2)
	scores.Set(0, 2, 0.6)
	scores.Set(1, 2, 0.9)
	train := &Training{
		Pairs: [][2]int{{0, 1}, {0, 2}, {1, 2}},
		Links: []bool{false, true, true},
	}
	cands := thresholdCandidates(train, scores)
	// 0, midpoints 0.4 and 0.75, top 0.9+ε.
	if len(cands) != 4 {
		t.Fatalf("candidates = %v", cands)
	}
	if cands[0] != 0 {
		t.Errorf("first candidate = %v, want 0", cands[0])
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Fatalf("candidates not increasing: %v", cands)
		}
	}
}

func TestGraphFromScores(t *testing.T) {
	scores := simfn.NewMatrix(3)
	scores.Set(0, 1, 0.7)
	scores.Set(0, 2, 0.3)
	scores.Set(1, 2, 0.5)
	g := thresholdGraph(ergraph.NewGraph(3), scores, 0.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("edges at/above threshold missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("edge below threshold present")
	}
}

// TestNilPoolMatchesWholeAnalysis pins the nil pool: BestOver(nil, …)
// resolves with the graph SelectBestGraph picks over every graph, for each
// single criterion and for AllCriteria, and WeightedAverageOver(nil) fuses
// bestPerFunction(a.Graphs) — the same labels and Source, on WWW'05 blocks
// under both final clusterings. Each side clusters in its own analysis of
// the same run seed, so correlation clustering draws the same pivots.
func TestNilPoolMatchesWholeAnalysis(t *testing.T) {
	d, err := corpus.WWW05Profile().Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string, got *Resolution, err error, want *Resolution) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.Source != want.Source || !slices.Equal(got.Labels, want.Labels) {
			t.Errorf("%s: got %s %v, want %s %v", label, got.Source, got.Labels, want.Source, want.Labels)
		}
	}
	pools := [][]CriterionKind{{ThresholdCriterion}, {EqualBinsCriterion}, {KMeansCriterion}, AllCriteria}
	for _, clustering := range []ClusteringMethod{TransitiveClosure, CorrelationClustering} {
		opts := DefaultOptions()
		opts.Clustering = clustering
		r, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, col := range d.Collections[:3] {
			prep, err := r.PrepareCtx(context.Background(), col)
			if err != nil {
				t.Fatal(err)
			}
			run := func() *Analysis {
				a, err := prep.Run(int64(i))
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			block := fmt.Sprintf("%v %s", clustering, col.Name)
			for _, crit := range pools {
				ref := run()
				best, err := SelectBestGraph(ref.Graphs, crit...)
				if err != nil {
					t.Fatal(err)
				}
				want := &Resolution{Labels: ref.cluster(best.Graph), Source: best.Label()}
				got, err := run().BestOver(nil, crit...)
				same(fmt.Sprintf("%s BestOver(nil, %v)", block, crit), got, err, want)
			}
			ref := run()
			combined, threshold, err := WeightedAverageGraph(bestPerFunction(ref.Graphs), ref.Prepared.Matrices, ref.Train)
			if err != nil {
				t.Fatal(err)
			}
			want := &Resolution{Labels: ref.cluster(combined), Source: fmt.Sprintf("weighted-average(th=%.3f)", threshold)}
			got, err := run().WeightedAverageOver(nil)
			same(block+" WeightedAverageOver(nil)", got, err, want)
		}
	}
}
