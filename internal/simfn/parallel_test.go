package simfn

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// forceParallel pins GOMAXPROCS to at least 4 for the duration of a test so
// the matrix rows are spread over several workers (and race-checked) even on
// small CI machines, where GOMAXPROCS(0) == 1 would run them all on one.
func forceParallel(t testing.TB) {
	if runtime.GOMAXPROCS(0) >= 4 {
		return
	}
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// parallelTestBlock prepares a seeded block of numDocs documents, enough
// rows (with all ten functions) to keep several workers busy.
func parallelTestBlock(t testing.TB, numDocs int) *Block {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "parallel", NumDocs: numDocs, NumPersonas: 5,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := PrepareBlockCtx(context.Background(), col, nil)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestComputeAllParallelMatchesSerial is the determinism guarantee: the
// worker-pool ComputeAllCtx must produce bit-identical matrices to the serial
// reference loop, for every function, on every run. Run with -race to also
// exercise the disjoint-writes claim.
func TestComputeAllParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	b := parallelTestBlock(t, 60)
	funcs := tableIFuncs(t)
	want := ComputeAllSerial(b, funcs)
	for round := 0; round < 3; round++ {
		got := computeAll(t, b, funcs)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d matrices, want %d", round, len(got), len(want))
		}
		for id, wm := range want {
			gm := got[id]
			if gm.Len() != wm.Len() {
				t.Fatalf("round %d %s: dim %d, want %d", round, id, gm.Len(), wm.Len())
			}
			for k, v := range wm.Values() {
				if gv := gm.Values()[k]; gv != v {
					t.Fatalf("round %d %s: cell %d = %v, want %v (not bit-identical)",
						round, id, k, gv, v)
				}
			}
		}
	}
}

// TestComputeMatrixParallelMatchesSerial covers the single-function entry
// point on a block of many rows.
func TestComputeMatrixParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	b := parallelTestBlock(t, 80)
	f, err := ByID("F9")
	if err != nil {
		t.Fatal(err)
	}
	want := ComputeMatrixSerial(b, f)
	got := ComputeMatrix(b, f)
	for k, v := range want.Values() {
		if gv := got.Values()[k]; gv != v {
			t.Fatalf("cell %d = %v, want %v", k, gv, v)
		}
	}
}

// TestPackedRegistryMatchesFallback compares every function over the packed
// forms against its definition over maps and strings (fallbackCompare) on
// the same block: reading a page through its unpacked vectors and feature
// strings must change no similarity by more than float summation-order
// noise.
func TestPackedRegistryMatchesFallback(t *testing.T) {
	b := parallelTestBlock(t, 30)
	fallback := fallbackCompare(b)
	for _, f := range tableIFuncs(t) {
		packed := ComputeMatrixSerial(b, f)
		for i := range b.Docs {
			for j := i + 1; j < len(b.Docs); j++ {
				if diff := packed.At(i, j) - fallback[f.ID](i, j); diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("%s: pair (%d, %d) packed %v, fallback %v", f.ID, i, j, packed.At(i, j), fallback[f.ID](i, j))
				}
			}
		}
	}
}

// TestComputeAllSmallBlock exercises a small block and the degenerate
// sizes.
func TestComputeAllSmallBlock(t *testing.T) {
	b := parallelTestBlock(t, 6)
	funcs := tableIFuncs(t)
	got := computeAll(t, b, funcs)
	want := ComputeAllSerial(b, funcs)
	for id, wm := range want {
		for k, v := range wm.Values() {
			if gv := got[id].Values()[k]; gv != v {
				t.Fatalf("%s cell %d: %v != %v", id, k, gv, v)
			}
		}
	}
	empty := &Block{Name: "empty"}
	if ms := computeAll(t, empty, funcs); len(ms) != 10 {
		t.Fatalf("empty block: %d matrices", len(ms))
	}
	one := &Block{Name: "one", Docs: make([]Doc, 1)}
	for _, m := range computeAll(t, one, funcs) {
		if m.Len() != 1 || len(m.Values()) != 0 {
			t.Fatalf("one-doc block: dim %d pairs %d", m.Len(), len(m.Values()))
		}
	}
}
