package pipeline

import (
	"context"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/stats"
)

// CommittedRun is what an incremental run reuses of a previous one: the
// clustering and, if scored, the score of the block with membership
// fingerprint fp; ok is false when that run had no such block. A nil
// receiver answers false. *Snapshot and *serving.Index implement it.
type CommittedRun interface {
	Committed(fp uint64) (res *core.Resolution, score *eval.Result, ok bool)
}

// Snapshot is the carry-over state of one incremental resolution: every
// block of that run keyed by its stable membership fingerprint, together
// with the clustering (and optional score) it produced. A Snapshot is
// immutable — RunIncremental reads one and builds a fresh one — so an old
// snapshot can keep serving concurrent readers while a new run is in
// flight. Snapshots are only meaningful to a pipeline with the same
// configuration (same options, blocker and strategy) that produced them;
// feeding one to a differently-configured pipeline silently reuses results
// the new configuration would not have computed.
//
// erlint:immutable — published snapshots are shared by concurrent readers;
// build a fresh Snapshot instead of mutating one in place.
type Snapshot struct {
	entries map[uint64]*cachedBlock
}

// Blocks returns the number of cached blocks.
func (s *Snapshot) Blocks() int {
	if s == nil {
		return 0
	}
	return len(s.entries)
}

// Committed implements CommittedRun. A nil snapshot holds no block.
func (s *Snapshot) Committed(fp uint64) (*core.Resolution, *eval.Result, bool) {
	if s == nil {
		return nil, nil, false
	}
	cb, ok := s.entries[fp]
	if !ok {
		return nil, nil, false
	}
	return cb.Res, cb.Score, true
}

// cachedBlock is one block's reusable output, and its own wire form in
// EncodeSnapshot: the final clustering and, for scored runs, its score.
// Blocks resolve independently, so nothing else of a clean block is ever
// read again.
type cachedBlock struct {
	Res   *core.Resolution
	Score *eval.Result
}

// IncrementalStats reports what the dirty-block diff did in one
// incremental run. Blocks == Reused + Prepared + Trivial.
type IncrementalStats struct {
	// Blocks is the total number of blocks in this run.
	Blocks int
	// Reused is the number of blocks whose membership fingerprint matched
	// the previous snapshot: their clustering and score were reused
	// verbatim and no preparation happened.
	Reused int
	// Prepared is the number of dirty blocks that went through the full
	// prepare → analyze → cluster stages (the prepare-count probe).
	Prepared int
	// Trivial is the number of dirty blocks below the training size,
	// resolved trivially without preparation.
	Trivial int
	// Blocking reports what the block stage did, and reused, for this run;
	// RunIncremental always sets it.
	Blocking *BlockingStats
}

// IncrementalResult is RunIncremental's output: the per-block results in
// block order, the snapshot to carry into the next run, and the diff
// stats. Members and Fingerprints describe each block's identity in the
// same order as Results — Members[i] lists block i's documents as refs
// into the resolved snapshot, Fingerprints[i] is its membership
// fingerprint — which is exactly what a serving index needs to
// re-materialize only the dirty blocks after a commit.
type IncrementalResult struct {
	Results      []Result
	Snapshot     *Snapshot
	Stats        IncrementalStats
	Members      [][]DocRef
	Fingerprints []uint64
}

// RunIncremental resolves the collections like Run, but diffs the block
// membership against prev (what the previous run over an earlier version
// of the same growing corpus committed) and re-prepares and
// re-analyzes only the dirty blocks — blocks whose member documents
// changed. Untouched blocks reuse the previous run's clustering and score
// verbatim. A nil prev makes this a full resolution.
//
// Unlike Run, which seeds each block's training draw by block index,
// RunIncremental derives the seed from the block's membership fingerprint,
// so a block keeps the same training draw no matter how many new blocks
// appear around it. That is what makes incremental resolution equivalent
// to a full one: ingesting documents in K batches (append-only — existing
// documents keep their collection and position) and resolving after each
// batch yields, after the last batch, exactly the clusters of a single
// RunIncremental over the union with prev == nil.
func (p *Pipeline) RunIncremental(ctx context.Context, cols []*corpus.Collection, prev CommittedRun) (*IncrementalResult, error) {
	blockStart := p.now()
	indexed, err := p.block(ctx, cols)
	if err != nil {
		return nil, err
	}
	blocks, fps := indexed.Blocks, indexed.Fingerprints
	p.observe(StageBlock, "", blockStart)

	results := make([]Result, len(blocks))
	next := &Snapshot{entries: make(map[uint64]*cachedBlock, len(blocks))}
	st := IncrementalStats{Blocks: len(blocks), Blocking: &indexed.Stats}

	// Diff: a block whose fingerprint the previous run committed is clean
	// — reuse its output; everything else is dirty.
	var todo []int
	for i := range blocks {
		if prev != nil {
			if res, score, hit := prev.Committed(fps[i]); hit {
				score = p.rescored(res, score, blocks[i])
				results[i] = Result{Block: blocks[i], Resolution: res, Score: score}
				st.Reused++
				continue
			}
		}
		todo = append(todo, i)
	}

	var prepares atomic.Int64
	baseSeed := p.resolver.Options().Seed
	seedOf := func(i int) int64 {
		return stats.SplitSeed(baseSeed, strconv.FormatUint(fps[i], 16))
	}
	if err := p.stream(ctx, blocks, todo, seedOf, results, &prepares); err != nil {
		return nil, err
	}

	for i, res := range results {
		next.entries[fps[i]] = &cachedBlock{Res: res.Resolution, Score: res.Score}
	}
	st.Prepared = int(prepares.Load())
	st.Trivial = len(todo) - st.Prepared
	return &IncrementalResult{
		Results:      results,
		Snapshot:     next,
		Stats:        st,
		Members:      indexed.Members,
		Fingerprints: fps,
	}, nil
}

// rescored returns score, or a fresh one if the pipeline wants a score and
// the previous run was unscored.
func (p *Pipeline) rescored(res *core.Resolution, score *eval.Result, block *corpus.Collection) *eval.Result {
	if !p.score || score != nil || len(block.Docs) == 0 {
		return score
	}
	s, err := eval.Evaluate(res.Labels, block.GroundTruth())
	if err != nil {
		// An unscoreable cached block keeps its nil score rather than
		// failing the whole run; scoring is advisory output.
		return nil
	}
	return &s
}
