package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/simfn"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// Failure-injection and boundary tests: the resolver must stay total and
// sane on degenerate collections — all pages about one person, every page
// its own person, empty or hostile page content, extreme noise.

func resolveWithOptions(t *testing.T, col *corpus.Collection, opts Options) *Resolution {
	t.Helper()
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ResolveCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResolveSinglePersonaCollection(t *testing.T) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "hall", NumDocs: 20, NumPersonas: 1,
		Noise: 0.5, MissingInfo: 0.2, Spurious: 0.2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := resolveWithOptions(t, col, DefaultOptions())
	// Every pair is a true link: a good resolver should mostly merge.
	score, err := eval.Evaluate(res.Labels, col.GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	if score.Fp < 0.5 {
		t.Errorf("single-persona Fp = %v", score.Fp)
	}
}

func TestResolveAllSingletonsCollection(t *testing.T) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "green", NumDocs: 20, NumPersonas: 20,
		Noise: 0.5, MissingInfo: 0.2, Spurious: 0.2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := resolveWithOptions(t, col, DefaultOptions())
	score, err := eval.Evaluate(res.Labels, col.GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	// All pairs are non-links; the framework must not collapse everything.
	if res.NumEntities() < 5 {
		t.Errorf("all-singleton block collapsed to %d entities", res.NumEntities())
	}
	if score.Fp < 0.4 {
		t.Errorf("all-singleton Fp = %v", score.Fp)
	}
}

func TestResolveHostileContent(t *testing.T) {
	// Hand-built collection with empty pages, whitespace, huge tokens and
	// unicode soup; the pipeline must not panic and must return a total
	// labeling.
	docs := []corpus.Document{
		{ID: 0, URL: "", Text: "", PersonaID: 0},
		{ID: 1, URL: "not a url at all", Text: "    \n\t  ", PersonaID: 0},
		{ID: 2, URL: "http://x.com", Text: "年糕 κόσμε املاء \x00 emoji 🦄🦄", PersonaID: 1},
		{ID: 3, URL: "ftp://weird:port:123/a//b", Text: string(make([]byte, 64)), PersonaID: 1},
		{ID: 4, URL: "http://y.com/a", Text: "Smith Smith Smith Smith", PersonaID: 2},
		{ID: 5, URL: "http://y.com/b", Text: "smith works at EPFL in Lausanne on learning.", PersonaID: 2},
	}
	col := &corpus.Collection{Name: "smith", Docs: docs, NumPersonas: 3}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	res := resolveWithOptions(t, col, DefaultOptions())
	if len(res.Labels) != 6 {
		t.Fatalf("labels = %d", len(res.Labels))
	}
}

func TestResolveExtremeNoise(t *testing.T) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "rivera", NumDocs: 30, NumPersonas: 5,
		Noise: 1.0, MissingInfo: 0.9, Spurious: 1.0, Template: 0.9, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := resolveWithOptions(t, col, DefaultOptions())
	score, err := eval.Evaluate(res.Labels, col.GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	// Under extreme noise we only require totality and bounded scores.
	if score.Fp < 0 || score.Fp > 1 {
		t.Errorf("score out of range: %+v", score)
	}
}

func TestRunWithValidation(t *testing.T) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "adams", NumDocs: 20, NumPersonas: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := r.PrepareCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.TrainFraction = 0
	if _, err := prep.RunWith(context.Background(), 1, bad); err == nil {
		t.Error("zero train fraction accepted")
	}
	bad = DefaultOptions()
	bad.RegionK = 1
	if _, err := prep.RunWith(context.Background(), 1, bad); err == nil {
		t.Error("region count 1 accepted")
	}
	// Clustering override is honored.
	cc := DefaultOptions()
	cc.Clustering = CorrelationClustering
	a, err := prep.RunWith(context.Background(), 1, cc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.BestAnyCriterion(); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCanceled(t *testing.T) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "adams", NumDocs: 20, NumPersonas: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := r.PrepareCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := prep.RunWith(ctx, 1, DefaultOptions())
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("RunWith on a canceled context = %v, %v; want no analysis and context.Canceled", a, err)
	}
}

func TestConstantSimilarityFunctionDegrades(t *testing.T) {
	// A similarity function that returns the same value for every pair
	// must not break threshold learning or region fitting.
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "king", NumDocs: 15, NumPersonas: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	block, err := simfn.PrepareBlockCtx(context.Background(), col, nil)
	if err != nil {
		t.Fatal(err)
	}
	constant := simfn.Func{
		ID: "FX", Feature: "constant", Measure: "constant",
		Compare: func(a, b *simfn.Doc) float64 { return 0.5 },
	}
	m := simfn.ComputeMatrix(block, constant)
	rng := stats.NewRNG(1)
	train, err := NewTraining(block, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	values := train.Values(m)
	th := LearnThreshold(values, train.Links)
	if th < 0 || th > 1 {
		t.Errorf("threshold = %v", th)
	}
	dg, err := buildDecisionGraph("FX", KMeansCriterion, m, train, newSample(new(Workspace), train, m), 10)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Estimate == nil || dg.Estimate.Part.NumRegions() != 1 {
		t.Errorf("constant values should collapse to one region")
	}
}

func TestNameSimilarityUsedInPipelineIsBounded(t *testing.T) {
	// Spot-check the feature path used by F3/F7 on hostile names.
	for _, pair := range [][2]string{
		{"", ""}, {"", "x"}, {"🦄", "🦄🦄"}, {string(make([]byte, 32)), "a"},
	} {
		s := textsim.PreparedNameSimilarity(textsim.PrepareName(pair[0]), textsim.PrepareName(pair[1]))
		if s < 0 || s > 1 {
			t.Errorf("NameSimilarity(%q,%q) = %v", pair[0], pair[1], s)
		}
	}
}
