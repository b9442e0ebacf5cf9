// Package store holds the server-side ingest state behind `ersolve
// serve`: a DocumentStore accumulating the crawled corpus across many
// small POSTs, and a Queue running ingest jobs asynchronously so clients
// get a job handle back instead of blocking on the write path.
//
// An Append only merges the batch: no index, cache or other observer hears
// of it. Whatever is derived from the corpus (blocking indexes, resolved
// snapshots) catches up when a resolve next reads a Snapshot.
// internal/persist's write-ahead Store implements DocumentStore over this
// package's MemStore.
package store

import (
	"fmt"
	"sync"

	"repro/internal/corpus"
)

// Stats summarizes a store's contents.
type Stats struct {
	// Collections is the number of distinct collection names ingested.
	Collections int `json:"collections"`
	// Docs is the total number of documents across all collections.
	Docs int `json:"docs"`
	// Version counts committed Append batches; it increases exactly when
	// the corpus changes, so equal versions mean equal snapshots.
	Version uint64 `json:"version"`
}

// DocumentStore accumulates an append-only corpus of named collections.
// Implementations must be safe for concurrent use.
//
// The append-only contract is what incremental resolution leans on:
// existing documents never move (a document keeps its collection and
// position forever), so a resolution block whose membership fingerprint is
// unchanged between two snapshots is guaranteed bit-identical.
type DocumentStore interface {
	// Append merges the given collections into the store by name, creating
	// unseen names and appending documents to known ones. Incoming
	// document IDs are ignored (the store assigns the next dense position)
	// and persona labels are remapped densely per collection in
	// first-seen order, so partially-delivered persona spaces stay valid.
	// Append is atomic: on a validation error nothing is committed. It
	// returns the number of documents added.
	Append(cols []*corpus.Collection) (int, error)
	// Snapshot returns a self-contained copy of the current collections in
	// first-ingested order, plus the store version it reflects. Mutating
	// the returned collections does not affect the store.
	Snapshot() ([]*corpus.Collection, uint64)
	// Stats reports the current size and version.
	Stats() Stats
}

// memCollection is one named collection's mutable state.
type memCollection struct {
	name     string
	docs     []corpus.Document
	personas map[int]int // client persona label → dense store label
}

// MemStore is the in-memory DocumentStore.
type MemStore struct {
	mu      sync.RWMutex
	order   []*memCollection
	byName  map[string]*memCollection
	version uint64
	docs    int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{byName: make(map[string]*memCollection)}
}

// ValidateBatch runs the exact validation Append applies before
// committing anything. It is exported so write-ahead backends can check
// a batch BEFORE journaling it: a batch that passes ValidateBatch is
// guaranteed to be accepted by Append, which is what lets them journal
// first and merge second without the two ever diverging.
func ValidateBatch(cols []*corpus.Collection) error {
	for _, col := range cols {
		if col == nil {
			return fmt.Errorf("store: nil collection")
		}
		if col.Name == "" {
			return fmt.Errorf("store: collection has empty name")
		}
		for i, d := range col.Docs {
			if d.PersonaID < 0 {
				return fmt.Errorf("store: collection %q doc %d has negative persona %d",
					col.Name, i, d.PersonaID)
			}
		}
	}
	return nil
}

// Append implements DocumentStore.
func (m *MemStore) Append(cols []*corpus.Collection) (int, error) {
	if err := ValidateBatch(cols); err != nil {
		return 0, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	added := 0
	mutated := false
	for _, col := range cols {
		entry, ok := m.byName[col.Name]
		if !ok {
			entry = &memCollection{name: col.Name, personas: make(map[int]int)}
			m.byName[col.Name] = entry
			m.order = append(m.order, entry)
			mutated = true
		}
		for _, d := range col.Docs {
			label, seen := entry.personas[d.PersonaID]
			if !seen {
				label = len(entry.personas)
				entry.personas[d.PersonaID] = label
			}
			d.ID = len(entry.docs)
			d.PersonaID = label
			entry.docs = append(entry.docs, d)
			added++
		}
	}
	if added > 0 || mutated {
		m.version++
	}
	m.docs += added
	return added, nil
}

// Snapshot implements DocumentStore.
func (m *MemStore) Snapshot() ([]*corpus.Collection, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*corpus.Collection, len(m.order))
	for i, entry := range m.order {
		out[i] = &corpus.Collection{
			Name:        entry.name,
			Docs:        append([]corpus.Document(nil), entry.docs...),
			NumPersonas: len(entry.personas),
		}
	}
	return out, m.version
}

// Stats implements DocumentStore.
func (m *MemStore) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Stats{Collections: len(m.order), Docs: m.docs, Version: m.version}
}
