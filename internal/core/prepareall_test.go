package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// TestPrepareAllMatchesSerialPrepare pins concurrent block preparation to
// the serial path: same collection order, same matrices, bit-identical
// values. Run with -race to exercise the shared-extractor claim.
func TestPrepareAllMatchesSerialPrepare(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		old := runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	d, err := corpus.WWW05Profile().Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	cols := d.Collections[:4]
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.PrepareAllCtx(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(cols) {
		t.Fatalf("PrepareAll returned %d blocks, want %d", len(all), len(cols))
	}
	for i, col := range cols {
		want, err := r.PrepareCtx(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		got := all[i]
		if got.Block.Name != col.Name {
			t.Fatalf("block %d is %q, want %q (order not preserved)", i, got.Block.Name, col.Name)
		}
		for id, wm := range want.Matrices {
			gm, ok := got.Matrices[id]
			if !ok {
				t.Fatalf("%s: matrix %s missing", col.Name, id)
			}
			for k, v := range wm.Values() {
				if gv := gm.Values()[k]; gv != v {
					t.Fatalf("%s/%s cell %d: %v != %v", col.Name, id, k, gv, v)
				}
			}
		}
	}
}

func TestPrepareAllPropagatesErrors(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d, err := corpus.WWW05Profile().Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	bad := &corpus.Collection{Name: "tiny"} // < 2 documents
	if _, err := r.PrepareAllCtx(context.Background(), []*corpus.Collection{d.Collections[0], bad}); err == nil {
		t.Fatal("PrepareAll accepted a 0-document collection")
	}
}
