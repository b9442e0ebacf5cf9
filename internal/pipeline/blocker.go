package pipeline

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/extract"
)

// Blocker is the pipeline's block stage: it re-partitions ingested
// collections into the resolution blocks the pairwise stages run over. The
// paper blocks by exact person name; a Blocker generalizes that to any
// candidate-pair scheme.
type Blocker interface {
	// BlockFingerprints returns the resolution blocks in deterministic
	// order, each with the refs of its member documents and its membership
	// fingerprint. Every returned collection must validate (dense doc IDs,
	// in-range persona labels), and Fingerprints[i] must equal
	// blocking.CombineIDs over the members' blocking.DocHash values in
	// member order, so a snapshot keys the same blocks the same way
	// whichever implementation blocked them.
	BlockFingerprints(ctx context.Context, cols []*corpus.Collection) (IndexedBlocks, error)
}

// IndexedBlocks is the block stage's output: the assembled blocks, for each
// block the refs of its member documents in block order (the order the
// block's Docs were assembled in), the membership fingerprints the
// incremental diff keys on, and what the stage did.
type IndexedBlocks struct {
	Blocks       []*corpus.Collection
	Members      [][]DocRef
	Fingerprints []uint64
	Stats        BlockingStats
}

// BlockingStats reports what the block stage did for one run — how much of
// the work the incremental index reused.
type BlockingStats struct {
	// Indexer names the block stage implementation: "index" for the
	// incremental key index (every entry point's blocker), "ann" for the
	// approximate candidate index and "scheme" for the per-run
	// SchemeBlocker, which only the library and the benchmark build.
	Indexer string `json:"indexer"`
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
}

// DocRef locates one ingested document by its position in the ingest: the
// collection's index and the document's index within it. It is an alias of
// the block index's ref type so membership flows between the layers
// without conversion.
type DocRef = blockindex.DocRef

// KeyFunc is the key index's key-function type, aliased because the
// benchmark's replay probe (bench/probe.go) names it here.
type KeyFunc = blockindex.KeyFunc

// NamesKey keys a document by its extracted person-name mentions: the most
// frequent person name on the page (feature F3) and the mention closest to
// the query name (F7). Unlike the collection-name default, it lets pages
// about one person retrieved under different query spellings ("j smith",
// "john smith") land in one block — the cross-collection variant merging
// raw crawls need. A page mentioning no person keeps its collection name
// as a fallback key so it still blocks with its siblings.
func NamesKey(col *corpus.Collection, doc corpus.Document) []string {
	f := extract.DefaultFeatureExtractor().Extract(doc.Text, doc.URL, col.Name)
	var keys []string
	if f.MostFrequentName != "" {
		keys = append(keys, f.MostFrequentName)
	}
	if f.ClosestName != "" && f.ClosestName != f.MostFrequentName {
		keys = append(keys, f.ClosestName)
	}
	if len(keys) == 0 {
		keys = append(keys, col.Name)
	}
	return keys
}

// URLHostKey keys a document by the host of its page URL — pages hosted
// together (a personal site, a lab directory, a company's staff pages)
// usually describe one person, so the host carries identity signal (the
// paper's feature F2) that cross-collection blocking can exploit. A page
// with no parseable host keeps its collection name as a fallback key so it
// still blocks with its retrieval siblings.
func URLHostKey(col *corpus.Collection, doc corpus.Document) []string {
	if host := extract.ParseURL(doc.URL).Host; host != "" {
		return []string{host}
	}
	return []string{col.Name}
}

// PhoneticKey keys a document by the Soundex codes of its extracted
// person-name mentions: the NamesKey names, each token folded to its
// phonetic class, so spelling variants that sound alike ("smith" and
// "smyth", "jon" and "john") land on one key without any pairwise
// comparison. A document whose names code to nothing (no letters) keeps
// its collection name so it still blocks with its retrieval siblings.
func PhoneticKey(col *corpus.Collection, doc corpus.Document) []string {
	var keys []string
	seen := make(map[string]bool)
	for _, k := range NamesKey(col, doc) {
		code := blocking.SoundexKey(k)
		if code == "" || seen[code] {
			continue
		}
		seen[code] = true
		keys = append(keys, code)
	}
	if len(keys) == 0 {
		keys = append(keys, col.Name)
	}
	return keys
}

// KeyNames are the accepted ParseKeys spellings, in display order for
// CLI/API usage messages.
var KeyNames = []string{"collection", "names", "urlhost", "phonetic"}

// ParseKeys maps a CLI/API key-function name to its KeyFunc: "collection"
// is the paper's retrieved-for-one-name scheme, "names" keys documents by
// their extracted person-name mentions (F3/F7), "urlhost" by the page
// URL's host (F2), "phonetic" by the Soundex codes of the extracted
// names.
func ParseKeys(name string) (KeyFunc, error) {
	switch name {
	case "", "collection":
		return blockindex.CollectionNameKey, nil
	case "names":
		return NamesKey, nil
	case "urlhost":
		return URLHostKey, nil
	case "phonetic":
		return PhoneticKey, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown key function %q (valid: %s)",
			name, strings.Join(KeyNames, ", "))
	}
}

// BlockingConfig is one parsed and validated block-stage configuration:
// what the CLI's blocking flags and the service's blocking knobs both reduce
// to, and what every entry point builds its blocker from. ParseBlocking is
// its constructor.
type BlockingConfig struct {
	// SchemeName and KeysName are the scheme's and the key function's names
	// with the defaults ("exact", "collection") resolved — the spellings
	// index and state keys are built from.
	SchemeName, KeysName string
	Scheme               blocking.KeyedScheme
	Keys                 KeyFunc
}

// ParseBlocking maps the CLI/API blocking names to their configuration,
// rejecting an unknown key function and every scheme but the key-based
// ones (exact, token) up front. Canopy, the global scheme, gathers records
// by a cheap key similarity, and the connected components of its pairs
// chain into corpus-sized blocks, so no entry point offers it;
// blocking.ParseScheme still builds it for SchemeBlocker. Empty names
// select the paper's setup: exact-key blocking over collection names.
func ParseBlocking(scheme, keys string) (BlockingConfig, error) {
	c := BlockingConfig{SchemeName: scheme, KeysName: keys}
	if c.SchemeName == "" {
		c.SchemeName = "exact"
	}
	if c.KeysName == "" {
		c.KeysName = "collection"
	}
	parsed, err := blocking.ParseScheme(c.SchemeName)
	keyed, ok := parsed.(blocking.KeyedScheme)
	if err != nil || !ok {
		return BlockingConfig{}, fmt.Errorf("blocking: unknown scheme %q (valid: exact, token)", c.SchemeName)
	}
	c.Scheme = keyed
	if c.Keys, err = ParseKeys(c.KeysName); err != nil {
		return BlockingConfig{}, err
	}
	return c, nil
}

// FreshBlocker builds the configuration's blocker: an IndexBlocker over a
// new, empty key index.
func (c BlockingConfig) FreshBlocker() (*IndexBlocker, error) {
	return NewIndexBlocker(c.Scheme, c.Keys, 0)
}

// SchemeBlocker adapts any blocking.Scheme into the pipeline's block
// stage: all ingested documents become records, the scheme generates
// candidate pairs, and the connected components of the candidate graph
// become resolution blocks (documents in no pair resolve as singleton
// blocks). Blocks are ordered by their first document in ingest order, and
// a block that reassembles an entire ingested collection reuses it
// verbatim — so exact-key blocking over collection names reproduces the
// ingested collections bit for bit.
type SchemeBlocker struct {
	// Scheme generates the candidate pairs; nil selects ExactKey.
	Scheme blocking.Scheme
	// Keys derives each document's blocking keys; nil selects the
	// collection name.
	Keys KeyFunc
}

// NewSchemeBlocker wraps a candidate-pair scheme with the default keys.
func NewSchemeBlocker(s blocking.Scheme) SchemeBlocker {
	return SchemeBlocker{Scheme: s}
}

// Validate surfaces degenerate scheme parameters (inverted canopy
// thresholds) when the pipeline is assembled instead of silently producing
// a useless candidate set at run time.
func (sb SchemeBlocker) Validate() error {
	if v, ok := sb.Scheme.(blocking.Validator); ok {
		return v.Validate()
	}
	return nil
}

// BlockFingerprints implements Blocker with one full pass: every document
// is keyed, paired and hashed on every call.
func (sb SchemeBlocker) BlockFingerprints(ctx context.Context, cols []*corpus.Collection) (IndexedBlocks, error) {
	scheme := sb.Scheme
	if scheme == nil {
		scheme = blocking.ExactKey{}
	}
	keys := sb.Keys
	if keys == nil {
		keys = blockindex.CollectionNameKey
	}

	var refs []DocRef
	var records []blocking.Record
	for ci, col := range cols {
		if err := ctx.Err(); err != nil {
			return IndexedBlocks{}, err
		}
		for di := range col.Docs {
			records = append(records, blocking.Record{ID: len(refs), Keys: keys(col, col.Docs[di])})
			refs = append(refs, DocRef{Col: ci, Doc: di})
		}
	}

	pairs := scheme.Candidates(records)
	if err := ctx.Err(); err != nil {
		return IndexedBlocks{}, err
	}
	uf := ergraph.NewUnionFind(len(refs))
	for _, p := range pairs {
		uf.Union(p.A, p.B)
	}

	// Components in order of their smallest member; members ascend because
	// the flattened indices are scanned in order.
	comp := make(map[int]int)
	var members [][]int
	for i := range refs {
		root := uf.Find(i)
		slot, ok := comp[root]
		if !ok {
			slot = len(members)
			comp[root] = slot
			members = append(members, nil)
		}
		members[slot] = append(members[slot], i)
	}

	out := IndexedBlocks{
		Blocks:       make([]*corpus.Collection, 0, len(members)),
		Members:      make([][]DocRef, 0, len(members)),
		Fingerprints: make([]uint64, 0, len(members)),
		Stats:        BlockingStats{Indexer: "scheme"},
	}
	docHashes := docKeys(cols)
	hashes := make([]uint64, 0, 64)
	for _, m := range members {
		mr := make([]DocRef, len(m))
		hashes = hashes[:0]
		for j, idx := range m {
			mr[j] = refs[idx]
			hashes = append(hashes, docHashes[mr[j].Col][mr[j].Doc])
		}
		out.Blocks = append(out.Blocks, assembleRefs(cols, mr))
		out.Members = append(out.Members, mr)
		out.Fingerprints = append(out.Fingerprints, blocking.CombineIDs(hashes))
	}
	return out, nil
}

// BlockMembership is BlockFingerprints without the fingerprints.
func (sb SchemeBlocker) BlockMembership(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, [][]DocRef, error) {
	out, err := sb.BlockFingerprints(ctx, cols)
	return out.Blocks, out.Members, err
}

// docKeys fingerprints every ingested document with blocking.DocHash — the
// shared identity formula of the incremental diff and the key index. A
// document's key covers its collection name, position, URL, text and
// persona label, so a block's membership fingerprint changes exactly when
// any member document's content or position changes — the dirty condition
// of the incremental diff. Positions are stable under append-only
// ingestion, which is what the store guarantees.
func docKeys(cols []*corpus.Collection) [][]uint64 {
	keys := make([][]uint64, len(cols))
	for ci, col := range cols {
		keys[ci] = make([]uint64, len(col.Docs))
		for di := range col.Docs {
			doc := &col.Docs[di]
			keys[ci][di] = blocking.DocHash(col.Name, di, doc.URL, doc.Text, doc.PersonaID)
		}
	}
	return keys
}

// assembleRefs builds one block collection from its member refs, the
// shared assembly step of SchemeBlocker and IndexBlocker. A component that
// covers exactly one whole ingested collection reuses it verbatim;
// anything else (a split, or a cross-collection merge) gets re-indexed
// documents and densely remapped persona labels.
func assembleRefs(cols []*corpus.Collection, refs []DocRef) *corpus.Collection {
	first := refs[0]
	src := cols[first.Col]
	if len(refs) == len(src.Docs) {
		whole := true
		for off, ref := range refs {
			if ref.Col != first.Col || ref.Doc != off {
				whole = false
				break
			}
		}
		if whole {
			return src
		}
	}

	// Persona labels from different source collections are unrelated;
	// remap (source collection, persona) densely in first-seen order.
	type personaKey struct {
		col, persona int
	}
	personas := make(map[personaKey]int)
	var names []string
	seenName := make(map[string]bool)
	out := &corpus.Collection{}
	for i, ref := range refs {
		col := cols[ref.Col]
		if !seenName[col.Name] {
			seenName[col.Name] = true
			names = append(names, col.Name)
		}
		doc := col.Docs[ref.Doc]
		pk := personaKey{col: ref.Col, persona: doc.PersonaID}
		label, ok := personas[pk]
		if !ok {
			label = len(personas)
			personas[pk] = label
		}
		doc.ID = i
		doc.PersonaID = label
		out.Docs = append(out.Docs, doc)
	}
	out.Name = strings.Join(names, "+")
	out.NumPersonas = len(personas)
	return out
}
