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
	// Block returns the resolution blocks in deterministic order. Every
	// returned collection must validate (dense doc IDs, in-range persona
	// labels).
	Block(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, error)
}

// KeyFunc derives the blocking keys of one document. The default keys a
// document by the name its collection was retrieved for — the paper's "all
// pages retrieved for one name" scheme. Richer key functions (extracted
// person names, URL hosts, …) trade reduction for recall. A KeyFunc must
// be pure: the sharded index calls it once per document at indexing time
// and caches the derived keys forever.
type KeyFunc func(col *corpus.Collection, doc corpus.Document) []string

// collectionNameKey is the default KeyFunc — one definition, shared with
// the index layer, so the two defaults can never drift and silently break
// the index-equals-scheme block equivalence.
func collectionNameKey(col *corpus.Collection, doc corpus.Document) []string {
	return blockindex.CollectionNameKey(col, doc)
}

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
		return collectionNameKey, nil
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

// Validate surfaces degenerate scheme parameters (a sorted-neighborhood
// window that can pair nothing, inverted canopy thresholds) when the
// pipeline is assembled instead of silently producing a useless candidate
// set at run time.
func (sb SchemeBlocker) Validate() error {
	if v, ok := sb.Scheme.(blocking.Validator); ok {
		return v.Validate()
	}
	return nil
}

// DefaultBlocker is the paper's scheme: exact-key blocking over collection
// names.
func DefaultBlocker() Blocker { return NewSchemeBlocker(blocking.ExactKey{}) }

// ParseBlocker maps a CLI/API scheme name ("exact", "token", …) to a
// blocker over the default document keys. Key-based schemes get the
// sharded incremental index; global schemes fall back to the per-run
// SchemeBlocker.
func ParseBlocker(name string) (Blocker, error) {
	scheme, err := blocking.ParseScheme(name)
	if err != nil {
		return nil, err
	}
	return NewBlocker(scheme, nil, 0)
}

// NewBlocker picks the right Blocker for a scheme: schemes whose candidate
// pairs come purely from shared keys (blocking.KeyedScheme — exact, token)
// get an IndexBlocker over the sharded incremental index, so repeated
// blocking of a growing corpus costs O(delta); global schemes
// (sortedneighborhood, canopy) keep the full per-run SchemeBlocker. A nil
// keys selects the collection-name KeyFunc, and shards < 1 the index
// default.
func NewBlocker(scheme blocking.Scheme, keys KeyFunc, shards int) (Blocker, error) {
	if keyed, ok := scheme.(blocking.KeyedScheme); ok {
		return NewIndexBlocker(keyed, keys, shards)
	}
	if v, ok := scheme.(blocking.Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	return SchemeBlocker{Scheme: scheme, Keys: keys}, nil
}

// DocRef locates one ingested document by its position in the ingest: the
// collection's index and the document's index within it. It is an alias of
// the block index's ref type so membership flows between the layers
// without conversion.
type DocRef = blockindex.DocRef

// MembershipBlocker is an optional Blocker extension that additionally
// reports which ingested documents each block contains. Incremental
// resolution requires it: block membership is what gets diffed against the
// previous run to decide which blocks are dirty.
type MembershipBlocker interface {
	Blocker
	// BlockMembership returns the blocks plus, for each block, the refs of
	// its member documents in block order (the order the block's Docs were
	// assembled in).
	BlockMembership(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, [][]DocRef, error)
}

// Block implements Blocker.
func (sb SchemeBlocker) Block(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, error) {
	blocks, _, err := sb.BlockMembership(ctx, cols)
	return blocks, err
}

// BlockMembership implements MembershipBlocker.
func (sb SchemeBlocker) BlockMembership(ctx context.Context, cols []*corpus.Collection) ([]*corpus.Collection, [][]DocRef, error) {
	scheme := sb.Scheme
	if scheme == nil {
		scheme = blocking.ExactKey{}
	}
	keys := sb.Keys
	if keys == nil {
		keys = collectionNameKey
	}

	var refs []DocRef
	var records []blocking.Record
	for ci, col := range cols {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		for di := range col.Docs {
			records = append(records, blocking.Record{ID: len(refs), Keys: keys(col, col.Docs[di])})
			refs = append(refs, DocRef{Col: ci, Doc: di})
		}
	}

	pairs := scheme.Candidates(records)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
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

	blocks := make([]*corpus.Collection, 0, len(members))
	memberRefs := make([][]DocRef, 0, len(members))
	for _, m := range members {
		mr := make([]DocRef, len(m))
		for j, idx := range m {
			mr[j] = refs[idx]
		}
		blocks = append(blocks, assembleRefs(cols, mr))
		memberRefs = append(memberRefs, mr)
	}
	return blocks, memberRefs, nil
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
