package blockindex

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/fanout"
)

// ErrOutOfSync reports that the collections handed to an update contradict
// what the index has already indexed: a collection renamed, removed or
// shrunk. Both candidate indexes lean on the store's append-only contract;
// a corpus that mutated under them cannot be incrementally maintained.
var ErrOutOfSync = errors.New("blockindex: corpus is out of sync with the index (append-only contract violated)")

// UpdateStats reports what one update of a candidate index did. The first
// four fields are the component tracker's; the rest describe the index
// that fed it and stay zero for the other kind.
type UpdateStats struct {
	// DeltaDocs is the number of newly indexed documents.
	DeltaDocs int
	// IndexedDocs is the total number of documents in the index after the
	// update.
	IndexedDocs int
	// DirtyBlocks is the number of blocks whose membership changed in this
	// update: components that gained a document or merged.
	DirtyBlocks int
	// Blocks is the total number of blocks after the update.
	Blocks int
	// Keys is the total number of distinct index keys (key index).
	Keys int
	// Edges is the total number of component-merging candidate edges (ANN
	// index).
	Edges int
}

// NewDoc is one document of an update's delta, already registered with
// the tracker: its stable internal id and position, the keys the owning
// index derived for it, and its content hash (blocking.DocHash).
type NewDoc struct {
	ID   int32
	Ref  DocRef
	Keys []string
	Hash uint64
}

// colState tracks how much of one collection is indexed.
type colState struct {
	name    string
	indexed int
}

// blockEntry caches one component's derived state: member refs sorted by
// (Col, Doc) — the order the pipeline assembles blocks in — and the
// membership fingerprint over the members' content hashes in that order.
// Entries are invalidated when their component changes and rebuilt lazily.
type blockEntry struct {
	refs []DocRef
	fp   uint64
}

// Components is the half of an incremental candidate index that does not
// care where candidate edges come from: which documents of an append-only
// corpus are indexed (per-collection high-water marks, stable refs and
// content hashes), which candidate-connected component each belongs to
// (a growing union-find plus per-root member lists), and — lazily, per
// component — the sorted member refs and membership fingerprint
// RunIncremental diffs on. The key index feeds it posting edges,
// internal/ann neighbor-query edges; an update is Begin, any number of
// Merge calls, Commit.
//
// Components is not safe for concurrent use: the owning index serializes
// every call under its own mutex, which also covers its postings or graph.
type Components struct {
	cols    []colState
	refs    []DocRef
	hashes  []uint64
	uf      *ergraph.UnionFind
	members [][]int32 // element → member ids while a root, nil otherwise
	blocks  map[int32]*blockEntry
}

// NewComponents returns an empty tracker.
func NewComponents() *Components {
	return &Components{
		uf:     ergraph.NewUnionFind(0),
		blocks: make(map[int32]*blockEntry),
	}
}

// Version counts indexed documents; it increases exactly when the index
// changes, so equal versions mean equal indexes (for one configuration).
func (c *Components) Version() uint64 { return uint64(len(c.refs)) }

// Docs, Collections and Blocks report the tracker's current shape.
func (c *Components) Docs() int        { return len(c.refs) }
func (c *Components) Collections() int { return len(c.cols) }
func (c *Components) Blocks() int      { return c.uf.Sets() }

// Collection returns the name and indexed-document high-water mark of
// collection i, and Refs and Hashes every document's position and content
// hash by internal id — what the codecs persist. The slices are the
// tracker's own and must not be mutated.
func (c *Components) Collection(i int) (name string, indexed int) {
	return c.cols[i].name, c.cols[i].indexed
}
func (c *Components) Refs() []DocRef   { return c.refs }
func (c *Components) Hashes() []uint64 { return c.hashes }

// AddCollection and AddDoc restore persisted state: a collection's
// high-water mark, and one document as a singleton component (its id is
// returned). Decoders replay them in encoded order, then Merge.
func (c *Components) AddCollection(name string, indexed int) {
	c.cols = append(c.cols, colState{name: name, indexed: indexed})
}

func (c *Components) AddDoc(ref DocRef, hash uint64) int32 {
	id := int32(c.uf.Add())
	c.refs = append(c.refs, ref)
	c.hashes = append(c.hashes, hash)
	c.members = append(c.members, []int32{id})
	return id
}

// Begin opens an update: it checks that cols is an append-only extension
// of what is indexed (same collection order and names, each collection at
// least as long as before — anything else is ErrOutOfSync), enumerates the
// delta in ingest order, derives each new document's keys and content
// hash in parallel — with rich key functions (extracted person names) this
// is the expensive part, paid once per document and never again per run —
// and registers the documents as singleton components. The caller links
// them with Merge and closes the update with Commit.
func (c *Components) Begin(cols []*corpus.Collection, keys func(col *corpus.Collection, doc corpus.Document) []string) ([]NewDoc, error) {
	if len(cols) < len(c.cols) {
		return nil, fmt.Errorf("%w: %d collections indexed, %d offered",
			ErrOutOfSync, len(c.cols), len(cols))
	}
	for i := range cols {
		if cols[i] == nil {
			return nil, fmt.Errorf("blockindex: nil collection at %d", i)
		}
		if i < len(c.cols) {
			if cols[i].Name != c.cols[i].name {
				return nil, fmt.Errorf("%w: collection %d is %q, index has %q",
					ErrOutOfSync, i, cols[i].Name, c.cols[i].name)
			}
			if len(cols[i].Docs) < c.cols[i].indexed {
				return nil, fmt.Errorf("%w: collection %q shrank from %d to %d documents",
					ErrOutOfSync, cols[i].Name, c.cols[i].indexed, len(cols[i].Docs))
			}
		}
	}

	var delta []NewDoc
	for ci, col := range cols {
		start := 0
		if ci < len(c.cols) {
			start = c.cols[ci].indexed
		}
		for di := start; di < len(col.Docs); di++ {
			delta = append(delta, NewDoc{Ref: DocRef{Col: ci, Doc: di}})
		}
	}
	fanout.Each(len(delta), func(i int) bool {
		d := &delta[i]
		col := cols[d.Ref.Col]
		doc := col.Docs[d.Ref.Doc]
		d.Keys = keys(col, doc)
		d.Hash = blocking.DocHash(col.Name, d.Ref.Doc, doc.URL, doc.Text, doc.PersonaID)
		return true
	})
	for i := range delta {
		delta[i].ID = c.AddDoc(delta[i].Ref, delta[i].Hash)
	}
	return delta, nil
}

// Merge unions the components of documents a and b, moving the absorbed
// root's member list to the survivor and invalidating both cached
// entries; it reports whether the two were separate.
func (c *Components) Merge(a, b int32) bool {
	root, absorbed, merged := c.uf.Merge(int(a), int(b))
	if merged {
		c.members[root] = append(c.members[root], c.members[absorbed]...)
		c.members[absorbed] = nil
		delete(c.blocks, int32(root))
		delete(c.blocks, int32(absorbed))
	}
	return merged
}

// Commit closes the update Begin opened. Every candidate edge links a new
// document to an indexed one, so the dirty set is exactly the delta's
// components: their cached entries are dropped, the collections'
// high-water marks advance to cols, and the tracker's share of the
// update's stats is returned.
func (c *Components) Commit(cols []*corpus.Collection, delta []NewDoc) UpdateStats {
	dirty := make(map[int]bool)
	for _, d := range delta {
		root := c.uf.Find(int(d.ID))
		dirty[root] = true
		delete(c.blocks, int32(root))
	}
	for ci, col := range cols {
		if ci < len(c.cols) {
			c.cols[ci].indexed = len(col.Docs)
		} else {
			c.AddCollection(col.Name, len(col.Docs))
		}
	}
	return UpdateStats{
		DeltaDocs:   len(delta),
		IndexedDocs: len(c.refs),
		DirtyBlocks: len(dirty),
		Blocks:      c.uf.Sets(),
	}
}

// Membership returns every block's member refs and membership fingerprint,
// in block order: blocks ordered by their smallest member's (Col, Doc)
// position, members ascending the same way — exactly the order a full
// SchemeBlocker pass produces. Only components dirtied since the last call
// are re-sorted and re-hashed (in parallel); the rest come from the cache.
// The returned slices are shared with the cache and must not be mutated.
func (c *Components) Membership() ([][]DocRef, []uint64) {
	var missing []int32
	roots := make([]int32, 0, c.uf.Sets())
	for id := range c.members {
		if c.members[id] == nil {
			continue
		}
		root := int32(id)
		roots = append(roots, root)
		if _, ok := c.blocks[root]; !ok {
			missing = append(missing, root)
		}
	}

	built := make([]*blockEntry, len(missing))
	fanout.Each(len(missing), func(i int) bool {
		built[i] = c.buildEntry(missing[i])
		return true
	})
	for i, root := range missing {
		c.blocks[root] = built[i]
	}

	entries := make([]*blockEntry, len(roots))
	for i, root := range roots {
		entries[i] = c.blocks[root]
	}
	sort.Slice(entries, func(i, j int) bool {
		return refLess(entries[i].refs[0], entries[j].refs[0])
	})
	refs := make([][]DocRef, len(entries))
	fps := make([]uint64, len(entries))
	for i, e := range entries {
		refs[i] = e.refs
		fps[i] = e.fp
	}
	return refs, fps
}

// buildEntry sorts one component's members by position and folds their
// content hashes into the membership fingerprint. Reads only immutable
// per-doc state, so it is safe to run in parallel for disjoint roots.
func (c *Components) buildEntry(root int32) *blockEntry {
	order := append([]int32(nil), c.members[root]...)
	sort.Slice(order, func(i, j int) bool {
		return refLess(c.refs[order[i]], c.refs[order[j]])
	})
	refs := make([]DocRef, len(order))
	hashes := make([]uint64, len(order))
	for i, id := range order {
		refs[i] = c.refs[id]
		hashes[i] = c.hashes[id]
	}
	return &blockEntry{refs: refs, fp: blocking.CombineIDs(hashes)}
}

// refLess orders refs by (Col, Doc) — flattened ingest order.
func refLess(a, b DocRef) bool {
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	return a.Doc < b.Doc
}
