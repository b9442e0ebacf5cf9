// Package blockindex maintains resolution-block membership incrementally:
// a sharded (hash-partitioned by normalized key) key→posting index plus a
// growing union-find over key-connected components, updated as ingest
// batches arrive instead of rebuilt per run.
//
// For the key-based blocking schemes (blocking.KeyedScheme: exact-key and
// token blocking) a candidate pair exists exactly when two documents share
// a derived index key, so appending a document only ever links it to the
// existing members of its keys' postings — components can only merge,
// never split, under the store's append-only contract. That makes the
// Block stage O(delta): Update keys and hashes only the new documents
// (in parallel), appends postings per shard (in parallel), applies the
// resulting union edges, and recomputes membership fingerprints only for
// the components the delta touched. Everything else — the clean blocks'
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
	"repro/internal/fanout"
)

// DocRef locates one ingested document by its position in the ingest: the
// collection's index and the document's index within it. Both are stable
// under append-only ingestion, which is what lets cached member lists
// survive across Update calls. (pipeline.DocRef is an alias of this type.)
type DocRef struct {
	Col, Doc int
}

// KeyFunc derives the blocking keys of one document, before the scheme's
// IndexKeys normalization. It must be pure: the index calls it exactly
// once per document, at indexing time, and assumes the answer never
// changes. (pipeline.KeyFunc converts to this type.)
type KeyFunc func(col *corpus.Collection, doc corpus.Document) []string

// DefaultShards is the shard count when Config.Shards is not positive.
const DefaultShards = 16

// Config assembles an Index.
type Config struct {
	// Scheme derives each document's index keys; required.
	Scheme blocking.KeyedScheme
	// Keys derives each document's raw blocking keys; nil keys a document
	// by its collection's name (the paper's scheme).
	Keys KeyFunc
	// Shards is the number of hash partitions of the key space; values < 1
	// select DefaultShards.
	Shards int
}

// CollectionNameKey is the default KeyFunc: one key, the collection name.
func CollectionNameKey(col *corpus.Collection, _ corpus.Document) []string {
	return []string{col.Name}
}

// shard is one hash partition of the key space. Each shard is touched by
// exactly one worker per Update, so postings need no locking.
type shard struct {
	postings map[string][]int32
}

// Index is the sharded incremental blocking index. All methods are safe
// for concurrent use.
type Index struct {
	mu     sync.Mutex
	scheme blocking.KeyedScheme
	keys   KeyFunc

	shards   []shard
	keyCount int

	comps *Components
}

// New assembles an empty index.
func New(cfg Config) (*Index, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("blockindex: config has no keyed scheme")
	}
	if v, ok := cfg.Scheme.(blocking.Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Keys == nil {
		cfg.Keys = CollectionNameKey
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	x := &Index{
		scheme: cfg.Scheme,
		keys:   cfg.Keys,
		shards: make([]shard, cfg.Shards),
		comps:  NewComponents(),
	}
	for i := range x.shards {
		x.shards[i].postings = make(map[string][]int32)
	}
	return x, nil
}

// shardOf hash-partitions one index key.
func (x *Index) shardOf(key string) int {
	return int(blocking.HashKey(key) % uint64(len(x.shards)))
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

	if len(delta) > 0 {
		// Partition the delta's (key, doc) pairs by shard, then let one
		// worker per touched shard append postings and emit union edges —
		// shard-disjoint maps make this safe without locks.
		type kv struct {
			key string
			id  int32
		}
		type edge struct {
			a, b int32
		}
		buckets := make([][]kv, len(x.shards))
		for _, d := range delta {
			for _, k := range d.Keys {
				s := x.shardOf(k)
				buckets[s] = append(buckets[s], kv{key: k, id: d.ID})
			}
		}
		edgesPer := make([][]edge, len(x.shards))
		newKeys := make([]int, len(x.shards))
		fanout.Each(len(x.shards), func(s int) bool {
			postings := x.shards[s].postings
			for _, item := range buckets[s] {
				p := postings[item.key]
				if len(p) == 0 {
					newKeys[s]++
				} else {
					edgesPer[s] = append(edgesPer[s], edge{a: p[0], b: item.id})
				}
				postings[item.key] = append(p, item.id)
			}
			return true
		})
		for s := range edgesPer {
			for _, e := range edgesPer[s] {
				x.comps.Merge(e.a, e.b)
			}
			x.keyCount += newKeys[s]
		}
	}

	stats := x.comps.Commit(cols, delta)
	stats.Keys = x.keyCount
	stats.Shards = len(x.shards)
	return stats, nil
}

// Membership returns every block's member refs and membership fingerprint
// in block order (see Components.Membership).
//
// Callers that need the membership OF a particular corpus must use
// UpdateMembership instead: between a separate Update and Membership a
// concurrent updater can advance the index past the caller's corpus,
// yielding refs that point beyond it.
func (x *Index) Membership() ([][]DocRef, []uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.comps.Membership()
}

// UpdateMembership indexes cols' delta and returns the resulting block
// membership as one atomic operation, so the returned refs are guaranteed
// to lie within cols even when concurrent updaters (another resolve
// sharing the index) are advancing the index. A
// corpus the incremental state cannot serve — already overtaken by a newer
// snapshot — returns ErrOutOfSync exactly like Update.
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

// MembershipOf computes the membership and fingerprints of an arbitrary
// corpus under this index's configuration without touching the index's
// state — a one-off full pass through a throwaway index. It is the
// fallback for corpora the incremental state cannot serve: a snapshot
// older than what the index has already seen (two configurations sharing
// one index can observe the store in different orders).
func (x *Index) MembershipOf(cols []*corpus.Collection) ([][]DocRef, []uint64, error) {
	tmp, err := New(Config{Scheme: x.scheme, Keys: x.keys, Shards: len(x.shards)})
	if err != nil {
		return nil, nil, err
	}
	if _, err := tmp.Update(cols); err != nil {
		return nil, nil, err
	}
	refs, fps := tmp.Membership()
	return refs, fps, nil
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
	// ShardKeys is the number of keys per shard — the balance of the hash
	// partitioning.
	ShardKeys []int `json:"shard_keys"`
	// Version counts indexed documents.
	Version uint64 `json:"version"`
}

// Stats reports the index's current shape.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := Stats{
		Docs:        x.comps.Docs(),
		Collections: x.comps.Collections(),
		Keys:        x.keyCount,
		Blocks:      x.comps.Blocks(),
		ShardKeys:   make([]int, len(x.shards)),
		Version:     x.comps.Version(),
	}
	for i := range x.shards {
		st.ShardKeys[i] = len(x.shards[i].postings)
	}
	return st
}
