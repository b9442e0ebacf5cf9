package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/regions"
	"repro/internal/stats"
)

// BenchmarkFitKMeans1D prices the decision stage's k-means fit on the
// training samples it really fits: every similarity function's sample of
// eight generated blocks, drawn as Prepared.RunWith draws them under the
// default options (k = 10, training fraction 0.1). The 40-page blocks are
// shaped like the 150 × 40 delta corpus (13 training documents, 78 pairs);
// the 100-page ones are WWW'05 blocks (32 documents, 496 pairs). One op
// fits every sample once; ns/fit is the mean per fit. The sort is outside
// the loop, as the decision stage shares it between criteria.
func BenchmarkFitKMeans1D(b *testing.B) {
	www := corpus.WWW05Profile()
	for _, docs := range []int{40, 100} {
		samples := kmeansBenchSamples(b, docs, func(i int) corpus.CollectionConfig {
			if docs == 40 {
				return corpus.CollectionConfig{NumPersonas: 4, Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2}
			}
			return corpus.CollectionConfig{NumPersonas: www.ClusterCounts[i],
				Noise: www.Noise, MissingInfo: www.MissingInfo, Spurious: www.Spurious, Template: www.Template}
		})
		k := DefaultOptions().RegionK
		b.Run(fmt.Sprintf("block=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range samples {
					if _, err := regions.FitKMeans1DOrdered(s.values, s.order, k); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/fit")
		})
	}
}

// kmeansBenchSamples prepares eight generated blocks of the given size and
// returns every function's training sample under the default options.
func kmeansBenchSamples(b *testing.B, docs int, config func(i int) corpus.CollectionConfig) []sample {
	b.Helper()
	opts := DefaultOptions()
	r, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	var out []sample
	for i := 0; i < 8; i++ {
		cfg := config(i)
		cfg.Name, cfg.NumDocs = fmt.Sprintf("fit%d", i), docs
		cfg.Seed = stats.SplitSeed(int64(docs), cfg.Name)
		col, err := corpus.GenerateCollection(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p, err := r.PrepareCtx(context.Background(), col)
		if err != nil {
			b.Fatal(err)
		}
		train, err := NewTraining(p.Block, opts.TrainFraction, stats.NewRNG(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range r.funcs {
			out = append(out, newSample(new(Workspace), train, p.Matrices[f.ID]))
		}
	}
	return out
}
