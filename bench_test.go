// Package repro_test holds the benchmark harness required by DESIGN.md:
// one benchmark per table and figure of the paper (each regenerates the
// full artifact), the ablation benchmarks for the design choices, and
// micro-benchmarks of the performance-critical substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks report custom metrics (Fp etc.) so the bench
// output doubles as a compact experimental record.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/simfn"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// benchConfig keeps each bench iteration affordable while covering the full
// datasets: 2 runs instead of the paper's 5.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	return cfg
}

// BenchmarkFigure1_RegionAccuracy regenerates Figure 1 (per-region link
// accuracy of F3 on "cohen") and reports the accuracy variation across
// regions, the quantity the figure demonstrates.
func BenchmarkFigure1_RegionAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure1(b.Context(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Variation, "acc-variation")
	}
}

// BenchmarkFigure2_WWW05 regenerates Figure 2 (per-function vs combined on
// WWW'05) and reports the combined Fp.
func BenchmarkFigure2_WWW05(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure2(b.Context(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		fp, _ := f.Table.Get("Combined", "Fp-measure")
		b.ReportMetric(fp, "combined-Fp")
	}
}

// BenchmarkFigure3_WePS regenerates Figure 3 (per-function vs combined on
// the WePS ACL names) and reports the combined Fp.
func BenchmarkFigure3_WePS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure3(b.Context(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		fp, _ := f.Table.Get("Combined", "Fp-measure")
		b.ReportMetric(fp, "combined-Fp")
	}
}

// BenchmarkTable2_Comparison regenerates Table II (I/C/W columns on both
// datasets) and reports the WWW'05 C10 Fp.
func BenchmarkTable2_Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableII(b.Context(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		c10, _ := t.Get("WWW05/Fp-measure", "C10")
		b.ReportMetric(c10, "WWW05-C10-Fp")
	}
}

// BenchmarkTable3_PerName regenerates Table III (per-name Fp of every
// function on WWW'05) and reports how many names C10 wins or ties.
func BenchmarkTable3_PerName(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableIII(b.Context(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		winners := t.ArgBest()
		c10 := 0
		for _, w := range winners {
			if w == "C10" {
				c10++
			}
		}
		b.ReportMetric(float64(c10), "C10-wins")
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

func ablationCfg() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Runs = 1
	return cfg
}

// BenchmarkAblation_Regions compares the decision-criteria pools.
func BenchmarkAblation_Regions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRegionScheme(b.Context(), ablationCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[len(res)-1].Score.Fp-res[0].Score.Fp, "all-vs-threshold-Fp")
	}
}

// BenchmarkAblation_K varies the region count.
func BenchmarkAblation_K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRegionK(b.Context(), ablationCfg(), []int{5, 10, 15})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[1].Score.Fp, "k10-Fp")
	}
}

// BenchmarkAblation_Clustering compares transitive closure with correlation
// clustering.
func BenchmarkAblation_Clustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationClustering(b.Context(), ablationCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[1].Score.Fp-res[0].Score.Fp, "correlation-minus-closure-Fp")
	}
}

// BenchmarkAblation_TrainingFraction varies the labeled fraction.
func BenchmarkAblation_TrainingFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationTrainFraction(b.Context(), ablationCfg(), []float64{0.05, 0.10, 0.20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[2].Score.Fp-res[0].Score.Fp, "train20-minus-train5-Fp")
	}
}

// BenchmarkAblation_Combination compares the combination methods.
func BenchmarkAblation_Combination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationCombination(b.Context(), ablationCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].Score.Fp, "best-graph-Fp")
	}
}

// --- Component micro-benchmarks ---

func benchBlock(b *testing.B) *simfn.Block {
	b.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: 100, NumPersonas: 8,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	blk, err := simfn.PrepareBlockCtx(context.Background(), col, nil)
	if err != nil {
		b.Fatal(err)
	}
	return blk
}

// BenchmarkPrepareBlock measures the per-collection preprocessing cost
// (feature extraction + TF-IDF vectors for 100 pages).
func BenchmarkPrepareBlock(b *testing.B) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: 100, NumPersonas: 8,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simfn.PrepareBlockCtx(context.Background(), col, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityMatrix measures computing one function's full pairwise
// matrix over a 100-page block, per function family.
func BenchmarkSimilarityMatrix(b *testing.B) {
	block := benchBlock(b)
	for _, id := range []string{"F1", "F2", "F3", "F8", "F9"} {
		f, err := simfn.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simfn.ComputeMatrix(block, f)
			}
		})
	}
}

// BenchmarkResolveCollection measures the full Algorithm 1 end to end on
// one 100-page collection.
func BenchmarkResolveCollection(b *testing.B) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: 100, NumPersonas: 8,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.New(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ResolveCtx(context.Background(), col); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisRun measures one training draw + all 30 decision graphs
// over a prepared collection (the per-run cost the experiments repeat).
func BenchmarkAnalysisRun(b *testing.B) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: 100, NumPersonas: 8,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.New(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	prep, err := r.PrepareCtx(context.Background(), col)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Run(stats.SplitSeedN(1, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPorterStem measures the stemmer on a mixed vocabulary.
func BenchmarkPorterStem(b *testing.B) {
	words := []string{
		"relational", "conditional", "university", "databases", "running",
		"effectiveness", "formalize", "hopefulness", "adjustable", "entity",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.PorterStem(words[i%len(words)])
	}
}

// BenchmarkStringSimilarities measures the name comparators on typical
// person names.
func BenchmarkStringSimilarities(b *testing.B) {
	pairs := [][2]string{
		{"andrew mccallum", "andrew maccallum"},
		{"john smith", "smith, john r."},
		{"leslie kaelbling", "fernando pereira"},
	}
	b.Run("JaroWinkler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			textsim.JaroWinkler(p[0], p[1])
		}
	})
	b.Run("NameSimilarity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			textsim.PreparedNameSimilarity(textsim.PrepareName(p[0]), textsim.PrepareName(p[1]))
		}
	})
}

// BenchmarkVectorSimilarities measures the TF-IDF pair measures on realistic
// document vectors: the three packed measures with the merge join each would
// pay alone, and the map cosine the R-Swoosh baseline compares records by.
func BenchmarkVectorSimilarities(b *testing.B) {
	block := benchBlock(b)
	pa, pb := block.Docs[0].Packed, block.Docs[1].Packed
	for _, m := range []struct {
		name  string
		ofDot func(a, b *textsim.PackedVector, dot float64, inter int) float64
	}{
		{"Cosine", textsim.PackedCosineOfDot},
		{"Pearson", textsim.PackedPearsonSimOfDot},
		{"ExtendedJaccard", textsim.PackedExtendedJaccardOfDot},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dot, inter := pa.DotIntersect(pb)
				m.ofDot(pa, pb, dot, inter)
			}
		})
	}
	va, vb := pa.Unpack(block.Vocab), pb.Unpack(block.Vocab)
	b.Run("Cosine_Map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			textsim.Cosine(va, vb)
		}
	})
}

// BenchmarkGenerateCollection measures the synthetic corpus generator.
func BenchmarkGenerateCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: "cohen", NumDocs: 100, NumPersonas: 8,
			Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25,
			Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseline_RSwoosh compares the framework (C10) against the
// R-Swoosh generic entity-resolution baseline on WWW'05 and reports the
// framework's margin.
func BenchmarkBaseline_RSwoosh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.BaselineComparison(b.Context(), ablationCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].Score.Fp-res[1].Score.Fp, "framework-margin-Fp")
	}
}
