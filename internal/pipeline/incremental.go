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

// NewSnapshot returns the snapshot a run leaves whose block i had
// membership fingerprint fps[i] and produced results[i], of which only the
// Resolution and Score are kept. RunIncremental builds its own; this is for
// a caller that holds a committed run in another form (the service rebuilds
// a configuration's snapshot from its persisted serving index on restart).
func NewSnapshot(fps []uint64, results []Result) *Snapshot {
	s := &Snapshot{entries: make(map[uint64]*cachedBlock, len(fps))}
	for i, fp := range fps {
		s.entries[fp] = &cachedBlock{Res: results[i].Resolution, Score: results[i].Score}
	}
	return s
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
// membership against prev (the snapshot of the previous run over an
// earlier version of the same growing corpus) and re-prepares and
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
func (p *Pipeline) RunIncremental(ctx context.Context, cols []*corpus.Collection, prev *Snapshot) (*IncrementalResult, error) {
	blockStart := p.now()
	indexed, err := p.blocker.BlockFingerprints(ctx, cols)
	if err != nil {
		return nil, err
	}
	blocks, fps := indexed.Blocks, indexed.Fingerprints
	p.observe(StageBlock, "", blockStart)

	results := make([]Result, len(blocks))
	next := &Snapshot{entries: make(map[uint64]*cachedBlock, len(blocks))}
	st := IncrementalStats{Blocks: len(blocks), Blocking: &indexed.Stats}

	// Diff: a block whose fingerprint is in the previous snapshot is
	// clean — reuse its cached output; everything else is dirty.
	var todo []int
	for i := range blocks {
		if prev != nil {
			if cb, hit := prev.entries[fps[i]]; hit {
				cb = p.rescored(cb, blocks[i])
				results[i] = Result{Index: i, Block: blocks[i], Resolution: cb.Res, Score: cb.Score}
				next.entries[fps[i]] = cb
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

	for _, i := range todo {
		next.entries[fps[i]] = &cachedBlock{Res: results[i].Resolution, Score: results[i].Score}
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

// rescored returns cb with a score if the pipeline wants one and the cache
// has none (the previous run was unscored); the cached entry itself is
// never mutated.
func (p *Pipeline) rescored(cb *cachedBlock, block *corpus.Collection) *cachedBlock {
	if !p.score || cb.Score != nil || len(block.Docs) == 0 {
		return cb
	}
	s, err := eval.Evaluate(cb.Res.Labels, block.GroundTruth())
	if err != nil {
		// An unscoreable cached block keeps its nil score rather than
		// failing the whole run; scoring is advisory output.
		return cb
	}
	out := *cb
	out.Score = &s
	return &out
}
