package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// smallBlocks generates n named collections of 12 pages: cheap to prepare,
// so a slow strategy dominates and prepare can run ahead if anything lets it.
func smallBlocks(t *testing.T, n int) []*corpus.Collection {
	t.Helper()
	cols := make([]*corpus.Collection, n)
	for i := range cols {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: "blk" + string(rune('a'+i)), NumDocs: 12, NumPersonas: 3,
			Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = col
	}
	return cols
}

// TestPreparedBlocksBoundedByWorkers pins the fused stage: a block is
// prepared by the worker that will finish it, so with two workers and a
// strategy that blocks, the blocks prepared but not yet through the
// strategy never exceed two. (Separate prepare and analyze pools joined by
// a buffered channel let prepare run ahead to three times that.)
func TestPreparedBlocksBoundedByWorkers(t *testing.T) {
	var alive, peak atomic.Int64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pl, err := New(Config{
		Observe: func(stage, _ string, _ time.Duration) {
			if stage != StagePrepare {
				return
			}
			n := alive.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
		},
		Strategy: func(a *core.Analysis) (*core.Resolution, error) {
			defer alive.Add(-1)
			time.Sleep(20 * time.Millisecond)
			return a.BestAnyCriterion()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := smallBlocks(t, 10)
	results, err := pl.Run(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Resolution == nil || r.Block.Name != cols[i].Name {
			t.Fatalf("result %d missing or out of block order: %+v", i, r)
		}
	}
	if p := peak.Load(); p < 1 || p > 2 {
		t.Errorf("peak prepared-but-unfinished blocks = %d with GOMAXPROCS 2, want 1..2", p)
	}
}

// TestFailingBlockCancelsRun: the first block to fail cancels the blocks in
// flight and the run returns that block's error, not a follower's
// context.Canceled.
func TestFailingBlockCancelsRun(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pl, err := New(Config{
		Strategy: func(a *core.Analysis) (*core.Resolution, error) {
			if calls.Add(1) == 2 {
				return nil, boom
			}
			return a.BestAnyCriterion()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := pl.Run(context.Background(), smallBlocks(t, 10))
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "pipeline: resolving block") {
		t.Fatalf("err = %v, want the failing block's wrapped error", err)
	}
	if results != nil {
		t.Error("partial results returned alongside the error")
	}
	if n := calls.Load(); n >= 10 {
		t.Errorf("strategy ran on %d of 10 blocks after the failure; the run was not canceled", n)
	}
}

// TestTwoConfigurationsResolveAtOnce runs two differently configured
// pipelines over the same blocks at once — blocks of growing and shrinking
// size, so every worker's workspace is reused by a smaller block after a
// larger one — and requires each run to equal the same pipeline run alone.
// Each run's workers own their workspaces, so nothing may cross between the
// runs or between a worker's blocks (run under -race).
func TestTwoConfigurationsResolveAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var cols []*corpus.Collection
	for i, n := range []int{60, 12, 3, 45, 2, 30, 8, 50} {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: fmt.Sprintf("blk%d", i), NumDocs: n, NumPersonas: min(n, 4),
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(200 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, col)
	}
	other := core.DefaultOptions()
	other.RegionK, other.Seed = 5, 9
	var pls []*Pipeline
	for _, cfg := range []Config{{Score: true}, {Options: other, Strategy: (*core.Analysis).WeightedAverage}} {
		pl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pls = append(pls, pl)
	}
	alone := make([][]Result, len(pls))
	for i, pl := range pls {
		var err error
		if alone[i], err = pl.Run(context.Background(), cols); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		together := make([][]Result, len(pls))
		var wg sync.WaitGroup
		for i, pl := range pls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if together[i], err = pl.Run(context.Background(), cols); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for i := range pls {
			for b, want := range alone[i] {
				got := together[i][b].Resolution
				if got.Source != want.Resolution.Source || !slices.Equal(got.Labels, want.Resolution.Labels) {
					t.Fatalf("configuration %d, block %d: resolved at once %s %v, alone %s %v",
						i, b, got.Source, got.Labels, want.Resolution.Source, want.Resolution.Labels)
				}
			}
		}
	}
}
