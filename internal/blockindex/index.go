// Package blockindex maintains resolution-block membership incrementally:
// one normalized key→posting map plus a growing union-find over
// key-connected components, updated as ingest batches arrive instead of
// rebuilt per run.
//
// For the key-based blocking schemes (blocking.KeyedScheme: exact-key and
// token blocking) a candidate pair exists exactly when two documents share
// a derived index key, so appending a document only ever links it to the
// existing members of its keys' postings — components can only merge,
// never split, under the store's append-only contract. That makes the
// Block stage O(delta): Update keys and hashes only the new documents
// (in parallel), appends them to their keys' postings, merging each with
// its posting's first member, and recomputes membership fingerprints only
// for the components the delta touched. Everything else — the clean blocks'
// sorted member lists and fingerprints — is served from the per-component
// cache.
//
// The package also owns Components, the component tracker that turns
// candidate edges into fingerprinted blocks. It is written once and held
// by both candidate indexes — Index here feeds it posting edges,
// internal/ann's CandidateIndex neighbor-query edges — because everything
// downstream of "these two documents are candidates" (append-only sync
// check, delta enumeration, union-find, member lists, fingerprint cache,
// version) is the same for both, and ann already imports this package for
// DocRef and KeyFunc.
//
// The index is safe for concurrent use; the pipeline's IndexBlocker wraps
// it behind the Blocker interfaces. The server keeps the index in memory
// only: after a restart the first resolve re-keys the replayed corpus.
// EncodeTo writes its primary state as one internal/framing record, which
// internal/persist.IndexDir files behind its magic and key record (*.idx)
// for the benchmark's replay probe.
package blockindex

import (
	"fmt"
	"sync"

	"repro/internal/blocking"
	"repro/internal/corpus"
)

// DocRef locates one ingested document by its position in the ingest: the
// collection's index and the document's index within it. Both are stable
// under append-only ingestion, which is what lets cached member lists
// survive across Update calls. (pipeline.DocRef is an alias of this type.)
type DocRef struct {
	Col, Doc int
}

// KeyFunc derives the blocking keys of one document, before the scheme's
// IndexKeys normalization — the one key-function type of every blocker.
// The default, CollectionNameKey, keys a document by the name its
// collection was retrieved for (the paper's "all pages retrieved for one
// name" scheme); richer key functions (extracted person names, URL hosts,
// …) trade reduction for recall. It must be pure: an index calls it
// exactly once per document, at indexing time, and assumes the answer
// never changes.
type KeyFunc func(col *corpus.Collection, doc corpus.Document) []string

// Config assembles an Index.
type Config struct {
	// Scheme derives each document's index keys; required.
	Scheme blocking.KeyedScheme
	// Keys derives each document's raw blocking keys; nil keys a document
	// by its collection's name (the paper's scheme).
	Keys KeyFunc
}

// CollectionNameKey is the default KeyFunc: one key, the collection name.
func CollectionNameKey(col *corpus.Collection, _ corpus.Document) []string {
	return []string{col.Name}
}

// Index is the incremental blocking index. All methods are safe for
// concurrent use.
type Index struct {
	mu     sync.Mutex
	scheme blocking.KeyedScheme
	keys   KeyFunc

	postings map[string][]int32 // index key → document ids, in indexing order

	comps *Components
}

// New assembles an empty index.
func New(cfg Config) (*Index, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("blockindex: config has no keyed scheme")
	}
	if cfg.Keys == nil {
		cfg.Keys = CollectionNameKey
	}
	return &Index{
		scheme:   cfg.Scheme,
		keys:     cfg.Keys,
		postings: make(map[string][]int32),
		comps:    NewComponents(),
	}, nil
}

// Version counts indexed documents; it increases exactly when the index
// changes, so equal versions mean equal indexes (for one configuration).
func (x *Index) Version() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.comps.Version()
}

// Update indexes every document of cols not yet indexed and returns what
// changed. cols must be the same append-only corpus the index has seen so
// far (same collection order and names, each collection at least as long
// as before), typically a store snapshot; anything else is ErrOutOfSync.
func (x *Index) Update(cols []*corpus.Collection) (UpdateStats, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.update(cols)
}

func (x *Index) update(cols []*corpus.Collection) (UpdateStats, error) {
	delta, err := x.comps.Begin(cols, func(col *corpus.Collection, doc corpus.Document) []string {
		return x.scheme.IndexKeys(x.keys(col, doc))
	})
	if err != nil {
		return UpdateStats{}, err
	}

	for _, d := range delta {
		for _, k := range d.Keys {
			p := x.postings[k]
			if len(p) > 0 {
				x.comps.Merge(p[0], d.ID)
			}
			x.postings[k] = append(p, d.ID)
		}
	}

	stats := x.comps.Commit(cols, delta)
	stats.Keys = len(x.postings)
	return stats, nil
}

// UpdateMembership indexes cols' delta and returns the resulting block
// membership as one atomic operation, so the returned refs are guaranteed
// to lie within cols even when a concurrent updater is advancing the
// index. A corpus already overtaken by a newer snapshot returns
// ErrOutOfSync exactly like Update, and leaves the index as it was.
func (x *Index) UpdateMembership(cols []*corpus.Collection) (UpdateStats, [][]DocRef, []uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	stats, err := x.update(cols)
	if err != nil {
		return stats, nil, nil, err
	}
	refs, fps := x.comps.Membership()
	return stats, refs, fps, nil
}

// Stats describes the index's current shape.
type Stats struct {
	// Docs is the number of indexed documents.
	Docs int `json:"docs"`
	// Collections is the number of indexed collections.
	Collections int `json:"collections"`
	// Keys is the number of distinct index keys.
	Keys int `json:"keys"`
	// Blocks is the number of key-connected components.
	Blocks int `json:"blocks"`
	// Version counts indexed documents.
	Version uint64 `json:"version"`
}

// Stats reports the index's current shape.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return Stats{
		Docs:        x.comps.Docs(),
		Collections: x.comps.Collections(),
		Keys:        len(x.postings),
		Blocks:      x.comps.Blocks(),
		Version:     x.comps.Version(),
	}
}
