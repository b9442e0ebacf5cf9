package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
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
	best := BestAnyCriterion()
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
			return best(a)
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
		if r.Resolution == nil || r.Index != i || r.Block.Name != cols[i].Name {
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
