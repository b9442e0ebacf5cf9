package simfn

import (
	"context"
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
	benchComputeAll(b, ComputeAll)
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
		PrepareBlock(col, nil)
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
