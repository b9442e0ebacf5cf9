package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/eval"
	"repro/internal/simfn"
)

func testCollection(t *testing.T, seed int64, docs, personas int) *corpus.Collection {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: docs, NumPersonas: personas,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("zero options accepted")
	}
	bad := DefaultOptions()
	bad.TrainFraction = 1.5
	if _, err := New(bad); err == nil {
		t.Error("bad train fraction accepted")
	}
	bad = DefaultOptions()
	bad.RegionK = 1
	if _, err := New(bad); err == nil {
		t.Error("bad region count accepted")
	}
	bad = DefaultOptions()
	bad.FunctionIDs = []string{"F99"}
	if _, err := New(bad); err == nil {
		t.Error("unknown function accepted")
	}
	bad = DefaultOptions()
	bad.Clustering = ClusteringMethod(42)
	if _, err := New(bad); err == nil {
		t.Error("unknown clustering accepted")
	}
	good, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := good.Options(); got.RegionK != 10 {
		t.Errorf("Options() = %+v", got)
	}
}

func TestPrepareAndRun(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	col := testCollection(t, 1, 40, 4)
	prep, err := r.PrepareCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Matrices) != 10 {
		t.Fatalf("matrices = %d, want 10", len(prep.Matrices))
	}
	a, err := prep.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	// 10 functions × 3 criteria.
	if len(a.Graphs) != 30 {
		t.Fatalf("graphs = %d, want 30", len(a.Graphs))
	}
	for _, g := range a.Graphs {
		if g.TrainAccuracy < 0 || g.TrainAccuracy > 1 {
			t.Errorf("%s accuracy = %v", g.Label(), g.TrainAccuracy)
		}
		if g.Graph.Len() != 40 {
			t.Errorf("%s graph size = %d", g.Label(), g.Graph.Len())
		}
		if g.Criterion != ThresholdCriterion && g.Estimate == nil {
			t.Errorf("%s missing region estimate", g.Label())
		}
	}
}

func TestPrepareRejectsTinyCollection(t *testing.T) {
	r, _ := New(DefaultOptions())
	col := &corpus.Collection{Name: "one", NumPersonas: 1,
		Docs: []corpus.Document{{ID: 0, Text: "x", URL: "http://a.com"}}}
	if _, err := r.PrepareCtx(context.Background(), col); err == nil {
		t.Error("single-doc collection accepted")
	}
}

func TestAllStrategiesProduceValidClusterings(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	col := testCollection(t, 5, 50, 6)
	prep, err := r.PrepareCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prep.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]func() (*Resolution, error){
		"I": func() (*Resolution, error) { return a.BestOver(nil, ThresholdCriterion) },
		"C": a.BestAnyCriterion,
		"W": func() (*Resolution, error) { return a.WeightedAverageOver(nil) },
		"M": a.MajorityVote,
	}
	truth := col.GroundTruth()
	for name, run := range strategies {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Labels) != 50 {
			t.Fatalf("%s: %d labels", name, len(res.Labels))
		}
		if res.Source == "" {
			t.Errorf("%s: empty source", name)
		}
		if res.NumEntities() < 1 || res.NumEntities() > 50 {
			t.Errorf("%s: %d entities", name, res.NumEntities())
		}
		// Any strategy must beat random guessing comfortably on this
		// moderately easy block.
		score, err := eval.Evaluate(res.Labels, truth)
		if err != nil {
			t.Fatal(err)
		}
		if score.Fp < 0.4 {
			t.Errorf("%s: Fp = %v, implausibly low", name, score.Fp)
		}
	}
}

func TestSingleFunctionAndGraphLookup(t *testing.T) {
	r, _ := New(DefaultOptions())
	col := testCollection(t, 9, 30, 3)
	prep, err := r.PrepareCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prep.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.BestOver([]string{"F8"}, ThresholdCriterion)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 30 || res.Source != "F8/threshold" {
		t.Fatalf("labels = %d, source %q", len(res.Labels), res.Source)
	}
	if _, err := a.BestOver([]string{"F99"}, ThresholdCriterion); err == nil {
		t.Error("unknown function accepted")
	}
	pool := a.GraphsFor([]string{"F3"}, KMeansCriterion)
	if len(pool) != 1 {
		t.Fatalf("F3 k-means pool has %d graphs", len(pool))
	}
	if pool[0].Estimate == nil {
		t.Error("k-means graph missing estimate")
	}
	if pool := a.GraphsFor([]string{"F3"}, CriterionKind(9)); len(pool) != 0 {
		t.Error("unknown criterion accepted")
	}
}

func TestResolveEndToEnd(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	col := testCollection(t, 11, 60, 5)
	res, err := r.ResolveCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	score, err := eval.Evaluate(res.Labels, col.GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	if score.Fp < 0.5 {
		t.Errorf("end-to-end Fp = %v, want >= 0.5", score.Fp)
	}
}

func TestResolveDeterministic(t *testing.T) {
	r, _ := New(DefaultOptions())
	col := testCollection(t, 13, 40, 4)
	a, err := r.ResolveCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ResolveCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("Resolve is not deterministic")
		}
	}
}

func TestCorrelationClusteringOption(t *testing.T) {
	opts := DefaultOptions()
	opts.Clustering = CorrelationClustering
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	col := testCollection(t, 17, 30, 3)
	res, err := r.ResolveCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 30 {
		t.Fatalf("labels = %d", len(res.Labels))
	}
	score, _ := eval.Evaluate(res.Labels, col.GroundTruth())
	if score.Fp < 0.4 {
		t.Errorf("correlation clustering Fp = %v", score.Fp)
	}
}

func TestSelectBestGraph(t *testing.T) {
	g1 := &DecisionGraph{FuncID: "F1", Criterion: ThresholdCriterion, TrainAccuracy: 0.6,
		Graph: ergraph.NewGraph(2)}
	g2 := &DecisionGraph{FuncID: "F2", Criterion: KMeansCriterion, TrainAccuracy: 0.9,
		Graph: ergraph.NewGraph(2)}
	g3 := &DecisionGraph{FuncID: "F3", Criterion: ThresholdCriterion, TrainAccuracy: 0.7,
		Graph: ergraph.NewGraph(2)}
	graphs := []*DecisionGraph{g1, g2, g3}

	best, err := SelectBestGraph(graphs, AllCriteria...)
	if err != nil || best != g2 {
		t.Errorf("best over all = %v, %v", best, err)
	}
	best, err = SelectBestGraph(graphs, ThresholdCriterion)
	if err != nil || best != g3 {
		t.Errorf("best threshold-only = %v, %v", best, err)
	}
	if _, err := SelectBestGraph(nil, AllCriteria...); err == nil {
		t.Error("empty graph list accepted")
	}
	if _, err := SelectBestGraph(graphs); err == nil {
		t.Error("no allowed criteria accepted")
	}
}

func TestBestPerFunction(t *testing.T) {
	graphs := []*DecisionGraph{
		{FuncID: "F1", Criterion: ThresholdCriterion, TrainAccuracy: 0.6},
		{FuncID: "F1", Criterion: KMeansCriterion, TrainAccuracy: 0.8},
		{FuncID: "F2", Criterion: ThresholdCriterion, TrainAccuracy: 0.7},
	}
	per := bestPerFunction(graphs)
	if len(per) != 2 {
		t.Fatalf("per-function = %d graphs", len(per))
	}
	if per[0].FuncID != "F1" || per[0].Criterion != KMeansCriterion {
		t.Errorf("F1 best = %+v", per[0])
	}
	if per[1].FuncID != "F2" {
		t.Errorf("order broken: %+v", per[1])
	}
}

func TestCombineErrors(t *testing.T) {
	if _, err := MajorityVoteGraph(nil); err == nil {
		t.Error("empty majority vote accepted")
	}
	mismatched := []*DecisionGraph{
		{FuncID: "F1", Graph: ergraph.NewGraph(2)},
		{FuncID: "F2", Graph: ergraph.NewGraph(3)},
	}
	if _, err := MajorityVoteGraph(mismatched); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, _, err := WeightedAverageGraph(nil, nil, &Training{}); err == nil {
		t.Error("empty weighted average accepted")
	}
	if _, _, err := WeightedAverageGraph(mismatched, map[string]*simfn.Matrix{
		"F1": simfn.NewMatrix(2), "F2": simfn.NewMatrix(3),
	}, &Training{}); err == nil {
		t.Error("size mismatch accepted in weighted average")
	}
	ok := []*DecisionGraph{{FuncID: "F1", Graph: ergraph.NewGraph(2)}}
	if _, _, err := WeightedAverageGraph(ok, map[string]*simfn.Matrix{}, &Training{}); err == nil {
		t.Error("missing matrix accepted")
	}
}

func TestCriterionAndMethodStrings(t *testing.T) {
	if ThresholdCriterion.String() != "threshold" ||
		EqualBinsCriterion.String() != "regions-equal" ||
		KMeansCriterion.String() != "regions-kmeans" {
		t.Error("criterion labels wrong")
	}
	if CriterionKind(9).String() != "unknown" {
		t.Error("unknown criterion label wrong")
	}
	if TransitiveClosure.String() != "transitive-closure" ||
		CorrelationClustering.String() != "correlation-clustering" ||
		ClusteringMethod(9).String() != "unknown" {
		t.Error("clustering labels wrong")
	}
}

func TestLinkConfidence(t *testing.T) {
	g := &DecisionGraph{Criterion: ThresholdCriterion, Threshold: 0.5, TrainAccuracy: 0.8}
	if got := g.LinkConfidence(0.7); got != 0.8 {
		t.Errorf("above threshold = %v, want 0.8", got)
	}
	if got := g.LinkConfidence(0.3); got < 0.2-1e-9 || got > 0.2+1e-9 {
		t.Errorf("below threshold = %v, want 0.2", got)
	}
}
