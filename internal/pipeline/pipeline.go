// Package pipeline composes entity resolution as a staged, streaming
// pipeline:
//
//	Ingest → Block → Prepare → Analyze → Combine → Cluster → Report
//
// Ingest hands raw collections to a pluggable Blocker (by default the key
// index over collection names), which re-partitions the documents into
// resolution blocks. One fan-out (internal/fanout) of up to GOMAXPROCS
// workers then claims blocks one at a time, and the worker that claimed a
// block takes it through every later stage: prepare (feature extraction,
// TF-IDF, all pairwise similarity matrices, whose rows fan out again on the
// same process-wide budget), analyze (training draw, decision graphs), the
// Strategy's combine and cluster steps, and the report stage's scoring.
// The stages are all CPU-bound, so handing a block between pools would buy
// no overlap and only keep more prepared blocks alive; this way at most
// GOMAXPROCS blocks' matrices exist at once, and there is no all-then-all
// barrier between the blocks. Each worker owns one core.Workspace for the
// run: every block it claims is prepared and analyzed in that memory, so a
// run allocates its scratch once per worker, sized to the largest block
// the worker saw, instead of once per block. The workspaces are dropped
// with the run; what a block hands on — its Resolution and Score — is
// freshly allocated.
//
// Blocker is the one block-stage interface and BlockFingerprints its one
// method: blocks, member refs, membership fingerprints and stats. Every
// caller blocks by keys through IndexBlocker, which serves a growing corpus
// in O(delta) from the incremental key index (internal/blockindex):
// ParseBlocking validates a scheme name (exact, token) and a key-function
// name into a BlockingConfig, whose FreshBlocker is an IndexBlocker over a
// new key index, and a nil Config.Blocker is that blocker for the paper's
// exact / collection keys, built afresh for each run. SchemeBlocker, the
// stateless full pass over any scheme, is the reference the index is
// tested against; only the benchmark's layer instruments run it.
//
// Every stage takes a context.Context threaded down through core.Resolver,
// simfn.PrepareBlockCtx and simfn.ComputeAllCtx, so cancellation or a timeout
// aborts an in-flight run mid-extraction, mid-matrix or between the
// analysis's similarity functions, and Run returns ctx.Err().
//
// With the default configuration (exact-key blocking over collection
// names, best-any-criterion strategy) the pipeline reproduces the classic
// per-collection Resolver path bit for bit.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/fanout"
	"repro/internal/stats"
)

// Stage names passed to Config.Observe, one per instrumented pipeline
// stage. StageBlock is observed once per run (the block stage is one
// pass); the others are observed once per non-trivial block, possibly from
// several workers at once.
const (
	StageBlock   = "block"
	StagePrepare = "prepare"
	StageAnalyze = "analyze"
	StageCluster = "cluster"
)

// Stages lists every stage name Config.Observe can receive, in pipeline
// order.
var Stages = []string{StageBlock, StagePrepare, StageAnalyze, StageCluster}

// Config assembles a Pipeline from its pluggable stages. Zero fields
// select defaults that reproduce the paper's setup.
type Config struct {
	// Options configures the resolver core. Zero-valued fields default
	// individually: empty FunctionIDs, TrainFraction 0 and RegionK 0 take
	// the corresponding core.DefaultOptions values; the zero Clustering
	// already is the default transitive closure, and a zero Seed is kept
	// (it is a valid seed).
	Options core.Options
	// Blocker re-partitions ingested collections into resolution blocks;
	// nil selects the paper's exact-key blocking over collection names,
	// which keeps each collection as one block, through a fresh key index
	// per Run and RunIncremental call (ParseBlocking("", "").FreshBlocker()):
	// a key index is bound to one append-only corpus, and one Pipeline may
	// resolve unrelated corpora.
	Blocker Blocker
	// Strategy runs the combine and cluster stages on each analysis; nil
	// selects (*core.Analysis).BestAnyCriterion, the paper's best-performing
	// combination.
	Strategy Strategy
	// Score evaluates every resolution against the block's embedded
	// ground truth and fills Result.Score.
	Score bool
	// Observe, when non-nil, receives the wall-clock duration of each
	// instrumented stage execution (see the Stage constants) together with
	// the block being processed — empty for StageBlock, which spans all
	// blocks. It is called concurrently from worker goroutines and must be
	// fast and concurrency-safe — an atomic histogram or a trace-span
	// recorder, not a mutex-heavy sink.
	Observe func(stage, block string, d time.Duration)
}

// Pipeline is an assembled, reusable resolution pipeline. It is safe for
// concurrent Run calls.
type Pipeline struct {
	resolver *core.Resolver
	blocker  Blocker
	strategy Strategy
	score    bool
	observeF func(stage, block string, d time.Duration)
}

// now returns the stage clock's reading, or the zero time when nothing
// observes — keeping the uninstrumented hot path free of clock calls.
func (p *Pipeline) now() time.Time {
	if p.observeF == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe reports one stage execution over block that began at start.
func (p *Pipeline) observe(stage, block string, start time.Time) {
	if p.observeF == nil || start.IsZero() {
		return
	}
	p.observeF(stage, block, time.Since(start))
}

// New validates the configuration and assembles the pipeline.
func New(cfg Config) (*Pipeline, error) {
	def := core.DefaultOptions()
	if len(cfg.Options.FunctionIDs) == 0 {
		cfg.Options.FunctionIDs = def.FunctionIDs
	}
	if cfg.Options.TrainFraction == 0 {
		cfg.Options.TrainFraction = def.TrainFraction
	}
	if cfg.Options.RegionK == 0 {
		cfg.Options.RegionK = def.RegionK
	}
	resolver, err := core.New(cfg.Options)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		resolver: resolver,
		blocker:  cfg.Blocker,
		strategy: cfg.Strategy,
		score:    cfg.Score,
		observeF: cfg.Observe,
	}
	if p.strategy == nil {
		p.strategy = (*core.Analysis).BestAnyCriterion
	}
	return p, nil
}

// Result is the report-stage output for one block, in block order: a
// run's i-th Result is the Blocker's i-th block.
type Result struct {
	// Block is the resolved block (documents re-grouped by the Blocker).
	Block *corpus.Collection
	// Resolution carries the cluster labels and their provenance.
	Resolution *core.Resolution
	// Score is the evaluation against the block's ground truth; nil
	// unless Config.Score is set.
	Score *eval.Result
}

// Run ingests the collections, blocks them, and streams every block
// through prepare → analyze → combine → cluster → report. Results are in
// block order and deterministic for a fixed configuration: each block's
// training seed depends only on its index. A canceled or timed-out context
// aborts the in-flight stages promptly and Run returns ctx.Err().
func (p *Pipeline) Run(ctx context.Context, cols []*corpus.Collection) ([]Result, error) {
	blockStart := p.now()
	indexed, err := p.block(ctx, cols)
	if err != nil {
		return nil, err
	}
	blocks := indexed.Blocks
	p.observe(StageBlock, "", blockStart)
	results := make([]Result, len(blocks))
	todo := make([]int, len(blocks))
	for i := range todo {
		todo[i] = i
	}
	seed := p.resolver.Options().Seed
	seedOf := func(i int) int64 { return stats.SplitSeedN(seed, i) }
	if err := p.stream(ctx, blocks, todo, seedOf, results, nil); err != nil {
		return nil, err
	}
	return results, nil
}

// block runs the block stage: the configured Blocker, or for a nil one a
// fresh key index over exact / collection keys (Config.Blocker).
func (p *Pipeline) block(ctx context.Context, cols []*corpus.Collection) (IndexedBlocks, error) {
	if p.blocker != nil {
		return p.blocker.BlockFingerprints(ctx, cols)
	}
	ib, err := NewIndexBlocker(blocking.ExactKey{}, nil, 0)
	if err != nil {
		return IndexedBlocks{}, err
	}
	return ib.BlockFingerprints(ctx, cols)
}

// stream is the shared prepare → analyze → combine → cluster → report core
// of Run and RunIncremental: workers claim the blocks named by todo one at
// a time, take block i from prepare to score, and write its Result into
// results[i]. seedOf derives a block's training seed from its index. Each
// worker makes one workspace and resolves every block it claims in it, so
// a block's Prepared and Analysis live only until the worker's next block;
// nothing of them reaches results. When prepares is non-nil it counts the
// preparations made (the prepare-count probe the incremental tests assert
// against). The first block to fail cancels the others and its error is
// returned.
func (p *Pipeline) stream(ctx context.Context, blocks []*corpus.Collection, todo []int,
	seedOf func(blockIndex int) int64, results []Result, prepares *atomic.Int64) error {

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failOnce sync.Once
	var firstErr error
	fanout.Run(len(todo), func() func(int) bool {
		ws := new(core.Workspace)
		return func(t int) bool {
			if runCtx.Err() != nil {
				return false
			}
			i := todo[t]
			res, err := p.runBlock(runCtx, ws, blocks[i], seedOf(i), prepares)
			if err != nil {
				failOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return false
			}
			results[i] = res
			return true
		}
	})

	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// runBlock takes one block from prepare (feature extraction, TF-IDF, all
// pairwise similarity matrices) to its scored Result, in the worker's
// workspace ws. Blocks too small to train on resolve trivially and skip
// every stage.
func (p *Pipeline) runBlock(ctx context.Context, ws *core.Workspace, col *corpus.Collection, seed int64,
	prepares *atomic.Int64) (Result, error) {

	if len(col.Docs) < 2 {
		res, err := p.trivial(col)
		if err != nil {
			return Result{}, fmt.Errorf("pipeline: block %q: %w", col.Name, err)
		}
		return res, nil
	}
	if prepares != nil {
		prepares.Add(1)
	}
	prepStart := p.now()
	prep, err := p.resolver.PrepareIn(ctx, ws, col)
	if err != nil {
		return Result{}, fmt.Errorf("pipeline: preparing block %q: %w", col.Name, err)
	}
	p.observe(StagePrepare, col.Name, prepStart)
	res, err := p.resolveBlock(ctx, ws, col, prep, seed)
	if err != nil {
		return Result{}, fmt.Errorf("pipeline: resolving block %q: %w", col.Name, err)
	}
	return res, nil
}

// resolveBlock runs analysis (training draw, decision graphs), combination,
// clustering and scoring for one prepared block, in the workspace ws. A
// canceled context stops the analysis between similarity functions.
func (p *Pipeline) resolveBlock(ctx context.Context, ws *core.Workspace, col *corpus.Collection, prep *core.Prepared, seed int64) (Result, error) {
	analyzeStart := p.now()
	a, err := prep.RunIn(ctx, ws, seed)
	if err != nil {
		return Result{}, err
	}
	p.observe(StageAnalyze, col.Name, analyzeStart)
	clusterStart := p.now()
	res, err := p.strategy(a)
	if err != nil {
		return Result{}, err
	}
	p.observe(StageCluster, col.Name, clusterStart)
	out := Result{Block: col, Resolution: res}
	if p.score {
		s, err := eval.Evaluate(res.Labels, col.GroundTruth())
		if err != nil {
			return Result{}, err
		}
		out.Score = &s
	}
	return out, nil
}

// trivial resolves a block too small for training: zero or one documents
// form at most one entity.
func (p *Pipeline) trivial(col *corpus.Collection) (Result, error) {
	res := &core.Resolution{Labels: make([]int, len(col.Docs)), Source: "trivial(<2 docs)"}
	out := Result{Block: col, Resolution: res}
	if p.score && len(col.Docs) > 0 {
		s, err := eval.Evaluate(res.Labels, col.GroundTruth())
		if err != nil {
			return Result{}, err
		}
		out.Score = &s
	}
	return out, nil
}

// AverageRuns runs a strategy over every prepared block for several
// independent training draws and macro-averages the scores — the shared
// report-stage loop of the experiment drivers. truths[i] is block i's
// ground truth, seeds derives the training seed for (run, block), and opts
// are the per-run analysis options (region count, clustering, training
// fraction). The context is checked between blocks so cancellation aborts
// a long sweep promptly with ctx.Err().
func AverageRuns(ctx context.Context, prepared []*core.Prepared, truths [][]int, runs int,
	seeds func(run, block int) int64, opts core.Options, strat Strategy) (eval.Result, error) {

	var perRun []eval.Result
	for run := 0; run < runs; run++ {
		var perCol []eval.Result
		for i, prep := range prepared {
			if err := ctx.Err(); err != nil {
				return eval.Result{}, err
			}
			a, err := prep.RunWith(seeds(run, i), opts)
			if err != nil {
				return eval.Result{}, err
			}
			res, err := strat(a)
			if err != nil {
				return eval.Result{}, err
			}
			score, err := eval.Evaluate(res.Labels, truths[i])
			if err != nil {
				return eval.Result{}, err
			}
			perCol = append(perCol, score)
		}
		perRun = append(perRun, eval.Aggregate(perCol))
	}
	return eval.Aggregate(perRun), nil
}
