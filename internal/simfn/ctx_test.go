package simfn

import (
	"context"
	"errors"
	"testing"
	"time"
)

// slowBlock returns a block and function whose full computation takes far
// longer than the test's cancellation horizon: n=80 docs → 3160 pairs at
// 1ms each (≈3s serial).
func slowBlock() (*Block, []Func) {
	b := &Block{Name: "slow", Docs: make([]Doc, 80)}
	f := Func{ID: "slow", Compare: func(a, d *Doc) float64 {
		time.Sleep(time.Millisecond)
		return 0
	}}
	return b, []Func{f}
}

func TestComputeAllCtxCanceledMidMatrix(t *testing.T) {
	b, funcs := slowBlock()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	ms, err := ComputeAllCtx(ctx, b, funcs)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ms != nil {
		t.Errorf("partial matrices returned alongside error")
	}
	// Workers check the context between rows; one in-flight row is at most
	// 79ms of compares, so the abort must be far quicker than the ≈3s a
	// full computation would take even on many cores.
	if elapsed > time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

func TestComputeAllCtxPreCanceled(t *testing.T) {
	b, funcs := slowBlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := ComputeAllCtx(ctx, b, funcs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("pre-canceled context still ran for %v", elapsed)
	}
}

func TestComputeMatrixCtxTimeout(t *testing.T) {
	b, funcs := slowBlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := ComputeAllCtx(ctx, b, funcs[:1]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestComputeAllCtxMatchesComputeAll(t *testing.T) {
	// With a context that never fires, the ctx path must be bit-identical
	// to the plain path on real prepared docs.
	b := testBlock(t, 11)
	funcs := Registry()
	want := ComputeAllSerial(b, funcs)
	got, err := ComputeAllCtx(context.Background(), b, funcs)
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range want {
		g := got[id]
		for i, v := range m.Values() {
			if g.Values()[i] != v {
				t.Fatalf("%s: cell %d differs: %v vs %v", id, i, g.Values()[i], v)
			}
		}
	}
}
