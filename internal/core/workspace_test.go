package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
)

// workspaceBlock generates a WWW'05-shaped block of n pages.
func workspaceBlock(t *testing.T, n int, seed int64) *corpus.Collection {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: fmt.Sprintf("block%d", n), NumDocs: n, NumPersonas: min(n, 6),
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// TestWorkspaceMatchesFresh resolves blocks of varying size — large, then
// small, then larger — one after another in one workspace, and requires
// each to equal its resolve in fresh memory: every matrix cell by its bits,
// every decision graph's closure, threshold, training accuracy and
// calibration, and the final labels and source. Each committed Resolution
// must come through every later block of the workspace unchanged.
func TestWorkspaceMatchesFresh(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ws Workspace
	type committed struct {
		res    *Resolution
		labels []int
	}
	var held []committed
	for i, n := range []int{100, 12, 2, 150, 40, 3} {
		col := workspaceBlock(t, n, int64(i+1))
		seed := int64(1000 + i)
		label := fmt.Sprintf("block %d (%d pages)", i, n)

		fresh, err := r.PrepareCtx(ctx, col)
		if err != nil {
			t.Fatal(err)
		}
		freshRun, err := fresh.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshRun.BestAnyCriterion()
		if err != nil {
			t.Fatal(err)
		}

		prep, err := r.PrepareIn(ctx, &ws, col)
		if err != nil {
			t.Fatal(err)
		}
		for id, m := range fresh.Matrices {
			got := prep.Matrices[id]
			if got.Len() != m.Len() || !slices.EqualFunc(got.Values(), m.Values(), func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("%s: matrix %s differs from fresh memory", label, id)
			}
		}
		a, err := prep.RunIn(ctx, &ws, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Graphs) != len(freshRun.Graphs) {
			t.Fatalf("%s: %d graphs, fresh %d", label, len(a.Graphs), len(freshRun.Graphs))
		}
		for g, dg := range a.Graphs {
			w := freshRun.Graphs[g]
			if math.Float64bits(dg.Threshold) != math.Float64bits(w.Threshold) ||
				math.Float64bits(dg.TrainAccuracy) != math.Float64bits(w.TrainAccuracy) ||
				math.Float64bits(dg.Calibration) != math.Float64bits(w.Calibration) ||
				!slices.Equal(dg.Graph.ConnectedComponents(), w.Graph.ConnectedComponents()) {
				t.Fatalf("%s: graph %s differs from fresh memory", label, dg.Label())
			}
		}
		got, err := a.BestAnyCriterion()
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != want.Source || !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("%s: resolved %s %v, fresh memory %s %v", label, got.Source, got.Labels, want.Source, want.Labels)
		}
		held = append(held, committed{got, slices.Clone(got.Labels)})
		for k, c := range held {
			if !slices.Equal(c.res.Labels, c.labels) {
				t.Fatalf("block %d's committed labels changed after block %d", k, i)
			}
		}
	}
}

// TestWorkspaceAllocationCeiling prepares and analyzes one 40-page block
// twice in one workspace: the second pass reuses what the first grew, and
// may allocate at most half the bytes of the first.
func TestWorkspaceAllocationCeiling(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	extract.DefaultFeatureExtractor() // built once per process, outside either pass
	col := workspaceBlock(t, 40, 7)
	var ws Workspace
	pass := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prep, err := r.PrepareIn(context.Background(), &ws, col)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.RunIn(context.Background(), &ws, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := pass(), pass()
	t.Logf("prepare + analyze of 40 pages: %d bytes in a new workspace, %d in the same one again", first, second)
	if second > first/2 {
		t.Errorf("the second pass allocated %d bytes, the first %d: want at most half", second, first)
	}
}

// TestRunInCanceled: RunIn on a canceled context builds no decision graph
// and returns the context's error.
func TestRunInCanceled(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	prep, err := r.PrepareIn(context.Background(), &ws, workspaceBlock(t, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := prep.RunIn(ctx, &ws, 1)
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("RunIn on a canceled context = %v, %v; want no analysis and context.Canceled", a, err)
	}
}
