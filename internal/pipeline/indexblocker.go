package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/ann"
	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
)

// BlockingStats reports what the block stage did for one run — how much of
// the work the sharded index reused.
type BlockingStats struct {
	// Indexer names the block stage implementation: "index" for the
	// sharded incremental index, "ann" for the approximate candidate
	// index, "scheme" for the per-run SchemeBlocker.
	Indexer string `json:"indexer"`
	// Shards is the index's hash-partition count.
	Shards int `json:"shards,omitempty"`
	// IndexedDocs is the total number of documents in the index after the
	// run.
	IndexedDocs int `json:"indexed_docs,omitempty"`
	// DeltaDocs is the number of documents this run newly indexed — 0 when
	// the corpus was unchanged since the index last saw it.
	DeltaDocs int `json:"delta_docs"`
	// DirtyBlocks is the number of blocks whose membership the delta
	// changed; everything else was served from the index's cache.
	DirtyBlocks int `json:"dirty_blocks"`
	// Keys is the number of distinct index keys.
	Keys int `json:"keys,omitempty"`
	// AnnM and AnnEf echo the approximate index's graph knobs when the
	// indexer is "ann".
	AnnM  int `json:"ann_m,omitempty"`
	AnnEf int `json:"ann_ef,omitempty"`
	// Fallback marks a call the incremental state could not serve — a
	// corpus older than what the index has already seen (two
	// configurations sharing one index can observe the store in different
	// orders) — answered by a one-off full pass instead. Results are
	// identical; only the O(delta) saving is lost for that call.
	Fallback bool `json:"fallback,omitempty"`
}

// IndexedBlocks is a FingerprintBlocker's output: the assembled blocks,
// their member refs, the membership fingerprints the incremental diff keys
// on, and the reuse stats.
type IndexedBlocks struct {
	Blocks       []*corpus.Collection
	Members      [][]DocRef
	Fingerprints []uint64
	Stats        BlockingStats
}

// FingerprintBlocker is an optional Blocker extension for block stages
// that maintain membership fingerprints themselves. RunIncremental uses it
// to skip re-hashing the whole corpus per run: the fingerprints must equal
// blocking.CombineIDs over the members' blocking.DocHash values in member
// order — the exact formula the fallback diff computes — so a snapshot
// written through either path keys the same blocks the same way.
type FingerprintBlocker interface {
	MembershipBlocker
	BlockFingerprints(ctx context.Context, cols []*corpus.Collection) (IndexedBlocks, error)
}

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

// ANNOptions carries the graph knobs of the approximate candidate index;
// zero values select the ann package defaults.
type ANNOptions struct {
	// M is the per-node degree bound of the proximity graph.
	M int
	// EfSearch sizes the neighbor query candidate edges come from; the
	// recall knob.
	EfSearch int
}

// NewANNBlocker builds an IndexBlocker over a fresh ANN candidate index
// for an approximable global scheme. A nil keys selects the
// collection-name KeyFunc; zero knobs select the ann defaults.
func NewANNBlocker(scheme blocking.ApproxScheme, keys KeyFunc, opts ANNOptions) (*IndexBlocker, error) {
	idx, err := ann.New(ann.Config{
		Scheme:   scheme,
		Keys:     ann.KeyFunc(keys),
		M:        opts.M,
		EfSearch: opts.EfSearch,
	})
	if err != nil {
		return nil, err
	}
	return NewANNBlockerWith(idx), nil
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

// Block implements Blocker.
func (ib *IndexBlocker) Block(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, error) {
	out, err := ib.BlockFingerprints(ctx, cols)
	return out.Blocks, err
}

// BlockMembership implements MembershipBlocker.
func (ib *IndexBlocker) BlockMembership(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, [][]DocRef, error) {
	out, err := ib.BlockFingerprints(ctx, cols)
	return out.Blocks, out.Members, err
}

// BlockFingerprints implements FingerprintBlocker: update the index with
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

// BlockingModes are the accepted blocking-mode spellings, in display
// order for CLI/API usage messages.
var BlockingModes = []string{"exact", "ann"}

// NewModeBlocker picks a Blocker for a scheme under an explicit blocking
// mode. Mode "" or "exact" is today's behavior — NewBlocker's dispatch,
// bit-identical results. Mode "ann" serves a global scheme from the
// incremental approximate candidate index; it requires a scheme with an
// approximation policy (canopy, sorted neighborhood) and rejects
// anything else, because the key-based schemes already have an exact
// O(delta) index and approximating them would only lose recall.
func NewModeBlocker(mode string, scheme blocking.Scheme, keys KeyFunc, shards int, opts ANNOptions) (Blocker, error) {
	switch mode {
	case "", "exact":
		return NewBlocker(scheme, keys, shards)
	case "ann":
		approx, ok := scheme.(blocking.ApproxScheme)
		if !ok {
			return nil, fmt.Errorf("pipeline: blocking mode %q needs a global scheme with an approximation policy (canopy, sortedneighborhood), not %T", mode, scheme)
		}
		return NewANNBlocker(approx, keys, opts)
	default:
		return nil, fmt.Errorf("pipeline: unknown blocking mode %q (valid: exact, ann)", mode)
	}
}
