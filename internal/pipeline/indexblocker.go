package pipeline

import (
	"context"
	"errors"
	"io"

	"repro/internal/ann"
	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
)

// CandidateIndex is what IndexBlocker needs from an incremental candidate
// index bound to one append-only corpus: insert the delta, report every
// component's members and membership fingerprint, say how far it has
// advanced, and write itself out. blockindex.Index (exact, key-based) and
// ann.CandidateIndex (approximate, graph-based) are the two
// implementations; both raise blockindex.ErrOutOfSync for a corpus that
// is not an extension of what they have seen.
type CandidateIndex interface {
	Update(cols []*corpus.Collection) (blockindex.UpdateStats, error)
	UpdateMembership(cols []*corpus.Collection) (blockindex.UpdateStats, [][]DocRef, []uint64, error)
	MembershipOf(cols []*corpus.Collection) ([][]DocRef, []uint64, error)
	Version() uint64
	EncodeTo(w io.Writer) (uint64, error)
}

// IndexBlocker is the Block stage over an incremental candidate index: it
// keys and hashes only the documents that arrived since the previous call,
// merges them into the candidate-connected components, and assembles the
// block collections in parallel. Over the sharded key index it serves the
// key-based schemes (exact, token) exactly; over the ANN index it serves
// the global schemes (canopy, sorted neighborhood) approximately,
// replacing their O(N²) per-run pass; without an index the global schemes
// keep SchemeBlocker.
//
// An IndexBlocker is bound to one append-only corpus (a document store):
// every call must present a superset of the previous call's collections,
// or the index reports blockindex.ErrOutOfSync. It is safe for concurrent
// use; calls serialize on the index.
type IndexBlocker struct {
	idx CandidateIndex
	// indexer is the BlockingStats.Indexer this blocker reports: "index"
	// over the sharded key index, "ann" over the ANN index.
	indexer string
}

// NewIndexBlocker builds an IndexBlocker for a key-based scheme. A nil
// keys selects the collection-name KeyFunc; shards < 1 selects the index
// default.
func NewIndexBlocker(scheme blocking.KeyedScheme, keys KeyFunc, shards int) (*IndexBlocker, error) {
	idx, err := blockindex.New(blockindex.Config{
		Scheme: scheme,
		Keys:   blockindex.KeyFunc(keys),
		Shards: shards,
	})
	if err != nil {
		return nil, err
	}
	return NewIndexBlockerWith(idx), nil
}

// NewIndexBlockerWith wraps an existing index — typically one decoded from
// its persisted form, so a restarted process resumes with the corpus
// already blocked.
func NewIndexBlockerWith(idx *blockindex.Index) *IndexBlocker {
	return &IndexBlocker{idx: idx, indexer: "index"}
}

// NewANNBlockerWith wraps an existing ANN candidate index — typically one
// decoded from its persisted form, so a restarted process resumes with
// the corpus already inserted into the graph.
func NewANNBlockerWith(idx *ann.CandidateIndex) *IndexBlocker {
	return &IndexBlocker{idx: idx, indexer: "ann"}
}

// Index exposes the underlying index for persistence and stats.
func (ib *IndexBlocker) Index() CandidateIndex { return ib.idx }

// Warm indexes any documents of cols the index has not seen, without
// assembling blocks — the ingest-notification hook that moves delta
// indexing off the resolve path. A snapshot the index has already been
// advanced past (a resolve got there first) is a no-op, not an error:
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
// assemble the block collections in parallel.
func (ib *IndexBlocker) BlockFingerprints(ctx context.Context, cols []*corpus.Collection) (IndexedBlocks, error) {
	if err := ctx.Err(); err != nil {
		return IndexedBlocks{}, err
	}
	// Update and membership must be one atomic index operation: with the
	// index shared (other configurations, the service's background
	// warmer), a separate Membership call could observe a state advanced
	// past cols and hand back refs pointing beyond the caller's snapshot.
	stats, members, fps, err := ib.idx.UpdateMembership(cols)
	blockingStats := BlockingStats{Indexer: ib.indexer}
	switch {
	case errors.Is(err, blockindex.ErrOutOfSync):
		// The corpus is older than the index state (a concurrent user
		// advanced it). Serve this call with a one-off full pass; the
		// index keeps its newer state for everyone else.
		members, fps, err = ib.idx.MembershipOf(cols)
		if err != nil {
			return IndexedBlocks{}, err
		}
		blockingStats.Fallback = true
	case err != nil:
		return IndexedBlocks{}, err
	default:
		blockingStats = BlockingStats{
			Indexer:     ib.indexer,
			Shards:      stats.Shards,
			IndexedDocs: stats.IndexedDocs,
			DeltaDocs:   stats.DeltaDocs,
			DirtyBlocks: stats.DirtyBlocks,
			Keys:        stats.Keys,
			AnnM:        stats.M,
			AnnEf:       stats.EfSearch,
		}
	}
	if err := ctx.Err(); err != nil {
		return IndexedBlocks{}, err
	}

	blocks := make([]*corpus.Collection, len(members))
	blockindex.Parallel(len(members), func(i int) {
		blocks[i] = assembleRefs(cols, members[i])
	})

	return IndexedBlocks{
		Blocks:       blocks,
		Members:      members,
		Fingerprints: fps,
		Stats:        blockingStats,
	}, nil
}
