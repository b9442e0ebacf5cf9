package simfn

import (
	"context"
	"fmt"
	"runtime"
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

// BenchmarkComputeAll_Parallel is the fan-out path used by the pipeline;
// compare pairs/s against BenchmarkComputeAll_Serial.
func BenchmarkComputeAll_Parallel(b *testing.B) {
	benchComputeAll(b, func(blk *Block, funcs []Func) map[string]*Matrix { return computeAll(b, blk, funcs) })
}

// BenchmarkPrepareBlock measures block preparation (feature extraction,
// TF-IDF weighting, packing) on the two corpus shapes the repo benchmark
// runs, at the block sizes its probe uses.
func BenchmarkPrepareBlock(b *testing.B) {
	for _, shape := range benchShapes {
		for _, n := range []int{42, 100, 150} {
			col := shapedCollection(b, shape.cfg, n, 1)
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := PrepareBlockCtx(context.Background(), col, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/doc")
			})
		}
	}
}

// TestPrepareBlockAllocationCeiling keeps the block-local lexicon from
// leaking away one convenience call at a time: preparing 100 WWW'05-shaped
// pages took about 280,000 allocations when every consumer re-tokenized the
// page, about 17,000 when they shared one pass over strings, about 4,700
// once the pass carried token IDs, and takes about 3,900 now that no page
// keeps a map copy of its vectors. What a prepared block retains is held
// the same way: twelve such blocks, the paper_www05 workload, kept 6.3 MB
// with the map copies and keep about 3.1 MB without.
func TestPrepareBlockAllocationCeiling(t *testing.T) {
	col := shapedCollection(t, benchShapes[0].cfg, 100, 1)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := PrepareBlockCtx(ctx, col, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6000 {
		t.Errorf("PrepareBlockCtx on 100 docs = %.0f allocs, want <= 6000", allocs)
	}

	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	cols := make([]*corpus.Collection, 12)
	for i := range cols {
		cols[i] = shapedCollection(t, benchShapes[0].cfg, 100, int64(i+1))
	}
	before := heap()
	blocks := make([]*Block, len(cols))
	for i, col := range cols {
		var err error
		if blocks[i], err = PrepareBlockCtx(ctx, col, nil); err != nil {
			t.Fatal(err)
		}
	}
	retained := (heap() - before) / 1e6
	runtime.KeepAlive(blocks)
	if retained > 4.4 {
		t.Errorf("12 prepared 100-page blocks retain %.2f MB, want <= 4.4", retained)
	}
	t.Logf("PrepareBlockCtx: %.0f allocs per 100 pages, %.2f MB retained by 12 blocks", allocs, retained)
}

// BenchmarkComputeAllByFunc prices each Table I function per document pair
// on the two corpus shapes the repo benchmark runs (the paper's WWW'05
// profile and the "6k" delta corpus) at the block sizes its probe uses.
// Functions are labelled pair-pure (the value depends on the two pages
// alone, so it could be carried over when a block grows: F2-F7) or
// block-relative (it depends on block-wide state — the TF-IDF weights of
// F8-F10 and the concept weights of F1 change with every page added).
// "keys" is the number of distinct Key values in the block (0 = not
// keyed). Rows price one function alone; F8-F10 share their join and F3
// and F7 their token table only in the "all" row, which is what a resolve
// pays per pair.
func BenchmarkComputeAllByFunc(b *testing.B) {
	class := map[string]string{
		"F1": "block-relative", "F2": "pair-pure", "F3": "pair-pure", "F4": "pair-pure", "F5": "pair-pure",
		"F6": "pair-pure", "F7": "pair-pure", "F8": "block-relative", "F9": "block-relative", "F10": "block-relative",
	}
	for _, shape := range benchShapes {
		for _, n := range []int{42, 100, 150} {
			col := shapedCollection(b, shape.cfg, n, 1)
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
