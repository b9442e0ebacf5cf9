package simfn

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/corpus"
)

// benchComputeAll measures full ten-function matrix computation on a
// ~100-doc block (the size of a WWW'05 collection), reporting pairs/sec so
// speedups are directly visible in bench output.
func benchComputeAll(b *testing.B, compute func(*Block, []Func) map[string]*Matrix) {
	blk := parallelTestBlock(b, 100)
	funcs := Registry()
	n := len(blk.Docs)
	pairsPerOp := float64(len(funcs) * n * (n - 1) / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compute(blk, funcs)
	}
	b.ReportMetric(pairsPerOp*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkComputeAll_Serial is the single-goroutine reference.
func BenchmarkComputeAll_Serial(b *testing.B) {
	benchComputeAll(b, ComputeAllSerial)
}

// BenchmarkComputeAll_Parallel is the worker-pool path used by the
// pipeline; compare pairs/s against BenchmarkComputeAll_Serial.
func BenchmarkComputeAll_Parallel(b *testing.B) {
	benchComputeAll(b, func(blk *Block, funcs []Func) map[string]*Matrix { return computeAll(b, blk, funcs) })
}

// prepareBenchCollection is the 100-doc collection BenchmarkPrepareBlock
// and the allocation ceiling below share.
func prepareBenchCollection(tb testing.TB) *corpus.Collection {
	tb.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "parallel", NumDocs: 100, NumPersonas: 5,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: 77,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return col
}

// BenchmarkPrepareBlock measures block preparation (feature extraction,
// TF-IDF materialization, packing) on the same 100-doc collection.
func BenchmarkPrepareBlock(b *testing.B) {
	col := prepareBenchCollection(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrepareBlockCtx(context.Background(), col, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPrepareBlockAllocationCeiling keeps the single analysis pass from
// leaking away one convenience call at a time: preparing the 100-doc bench
// collection took 279,601 allocations when every consumer re-tokenized the
// page, and about 17,500 once they shared one pass.
func TestPrepareBlockAllocationCeiling(t *testing.T) {
	col := prepareBenchCollection(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := PrepareBlockCtx(ctx, col, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60000 {
		t.Errorf("PrepareBlockCtx on 100 docs = %.0f allocs, want <= 60000", allocs)
	}
}

// BenchmarkComputeAllByFunc prices each Table I function per document pair
// on the two corpus shapes the repo benchmark runs (the paper's WWW'05
// profile and the "6k" delta corpus) at the block sizes its probe uses.
// Functions are labelled pair-pure (the value depends on the two pages
// alone, so it could be carried over when a block grows: F2-F7) or
// block-relative (it depends on block-wide state — the TF-IDF weights of
// F8-F10 and the concept weights of F1 change with every page added).
// "keys" is the number of distinct Key values in the block (0 = not
// keyed). Rows price one function alone; F8-F10 share their merge join
// only in the "all" row, which is what a resolve pays per pair.
func BenchmarkComputeAllByFunc(b *testing.B) {
	shapes := []struct {
		name string
		cfg  corpus.CollectionConfig
	}{
		{"www05", corpus.CollectionConfig{NumPersonas: 13, Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25}},
		{"6k", corpus.CollectionConfig{NumPersonas: 4, Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2}},
	}
	class := map[string]string{
		"F1": "block-relative", "F2": "pair-pure", "F3": "pair-pure", "F4": "pair-pure", "F5": "pair-pure",
		"F6": "pair-pure", "F7": "pair-pure", "F8": "block-relative", "F9": "block-relative", "F10": "block-relative",
	}
	for _, shape := range shapes {
		for _, n := range []int{42, 100, 150} {
			cfg := shape.cfg
			cfg.Name, cfg.NumDocs, cfg.Seed = "mitchell", n, 1
			col, err := corpus.GenerateCollection(cfg)
			if err != nil {
				b.Fatal(err)
			}
			blk, err := PrepareBlockCtx(context.Background(), col, nil)
			if err != nil {
				b.Fatal(err)
			}
			pairs := float64(n * (n - 1) / 2)
			for _, f := range Registry() {
				keys := 0
				if f.Key != nil {
					distinct := map[string]bool{}
					for d := range blk.Docs {
						distinct[f.Key(&blk.Docs[d])] = true
					}
					keys = len(distinct)
				}
				b.Run(fmt.Sprintf("%s/n=%d/%s/%s", shape.name, n, f.ID, class[f.ID]), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ComputeMatrix(blk, f)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
					b.ReportMetric(float64(keys), "keys")
				})
			}
			b.Run(fmt.Sprintf("%s/n=%d/all", shape.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					computeAll(b, blk, Registry())
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
			})
		}
	}
}
