package pipeline

import (
	"context"
	"errors"
	"io"

	"repro/internal/ann"
	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/fanout"
)

// CandidateIndex is what IndexBlocker needs from an incremental candidate
// index bound to one append-only corpus: insert the delta, report every
// component's members and membership fingerprint, say how far it has
// advanced, and write itself out. blockindex.Index (exact, key-based) and
// ann.CandidateIndex (approximate, graph-based) are the two
// implementations; both raise blockindex.ErrOutOfSync for a corpus that
// is not an extension of what they have seen, and leave their state as
// it was.
type CandidateIndex interface {
	Update(cols []*corpus.Collection) (blockindex.UpdateStats, error)
	UpdateMembership(cols []*corpus.Collection) (blockindex.UpdateStats, [][]DocRef, []uint64, error)
	Version() uint64
	EncodeTo(w io.Writer) (uint64, error)
}

// IndexBlocker is the Block stage over an incremental candidate index: it
// keys and hashes only the documents that arrived since the previous call,
// merges them into the candidate-connected components, and assembles the
// block collections in parallel. Over the key index it serves the
// key-based schemes (exact, token) exactly, and it is what every entry
// point blocks with (BlockingConfig.FreshBlocker); over the ANN index it
// serves the global scheme (canopy) approximately, which only the library
// and the benchmark build (NewANNBlockerWith).
//
// An IndexBlocker is bound to one append-only corpus (a document store):
// every call must present a superset of the previous call's collections,
// or BlockFingerprints returns blockindex.ErrOutOfSync. The service gives
// each resolution configuration its own IndexBlocker and serializes that
// configuration's runs and store snapshots, so a call never presents an
// older corpus there. It is safe for concurrent use; calls serialize on
// the index.
type IndexBlocker struct {
	idx CandidateIndex
	// indexer is the BlockingStats.Indexer this blocker reports: "index"
	// over the key index, "ann" over the ANN index.
	indexer string
}

// NewIndexBlocker builds an IndexBlocker for a key-based scheme. A nil
// keys selects the collection-name KeyFunc. The third argument is ignored:
// it was the index's shard count, and survives only because the
// benchmark's replay probe (bench/probe.go) still passes it; it goes with
// that loop.
func NewIndexBlocker(scheme blocking.KeyedScheme, keys KeyFunc, _ int) (*IndexBlocker, error) {
	idx, err := blockindex.New(blockindex.Config{
		Scheme: scheme,
		Keys:   keys,
	})
	if err != nil {
		return nil, err
	}
	return NewIndexBlockerWith(idx), nil
}

// NewIndexBlockerWith wraps an existing index, such as one decoded from its
// encoded form, which resumes with the corpus it held already blocked.
func NewIndexBlockerWith(idx *blockindex.Index) *IndexBlocker {
	return &IndexBlocker{idx: idx, indexer: "index"}
}

// NewANNBlockerWith wraps an existing ANN candidate index, such as one
// built outside the pipeline, which resumes with the corpus it holds
// already inserted into the graph.
func NewANNBlockerWith(idx *ann.CandidateIndex) *IndexBlocker {
	return &IndexBlocker{idx: idx, indexer: "ann"}
}

// Index exposes the underlying index for encoding and stats.
func (ib *IndexBlocker) Index() CandidateIndex { return ib.idx }

// Warm indexes any documents of cols the index has not seen, without
// assembling blocks: the delta update of BlockFingerprints alone. The
// service never calls it (its indexes advance only inside a resolve); the
// benchmark's replay probe does, to time that update by itself. A snapshot
// the index has already been advanced past is a no-op, not an error:
// warming has nothing left to add.
func (ib *IndexBlocker) Warm(cols []*corpus.Collection) (blockindex.UpdateStats, error) {
	stats, err := ib.idx.Update(cols)
	if errors.Is(err, blockindex.ErrOutOfSync) {
		return blockindex.UpdateStats{}, nil
	}
	return stats, err
}

// BlockMembership is BlockFingerprints without the fingerprints.
func (ib *IndexBlocker) BlockMembership(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, [][]DocRef, error) {
	out, err := ib.BlockFingerprints(ctx, cols)
	return out.Blocks, out.Members, err
}

// BlockFingerprints implements Blocker: update the index with
// the delta, pull every block's cached membership and fingerprint, and
// assemble the block collections in parallel. A corpus older than what the
// index has seen is blockindex.ErrOutOfSync.
func (ib *IndexBlocker) BlockFingerprints(ctx context.Context, cols []*corpus.Collection) (IndexedBlocks, error) {
	if err := ctx.Err(); err != nil {
		return IndexedBlocks{}, err
	}
	// Update and membership are one atomic index operation: a separate
	// Membership call could observe a state a concurrent caller advanced
	// past cols and hand back refs pointing beyond the caller's snapshot.
	stats, members, fps, err := ib.idx.UpdateMembership(cols)
	if err != nil {
		return IndexedBlocks{}, err
	}
	blockingStats := BlockingStats{
		Indexer:     ib.indexer,
		IndexedDocs: stats.IndexedDocs,
		DeltaDocs:   stats.DeltaDocs,
		DirtyBlocks: stats.DirtyBlocks,
		Keys:        stats.Keys,
	}
	if err := ctx.Err(); err != nil {
		return IndexedBlocks{}, err
	}

	blocks := make([]*corpus.Collection, len(members))
	fanout.Each(len(members), func(i int) bool {
		blocks[i] = assembleRefs(cols, members[i])
		return true
	})

	return IndexedBlocks{
		Blocks:       blocks,
		Members:      members,
		Fingerprints: fps,
		Stats:        blockingStats,
	}, nil
}
