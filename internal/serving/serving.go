// Package serving is the hot read path over a committed resolution: an
// immutable in-memory inverted index answering "which cluster is this
// document in", "who is entity X", and "which clusters match these name
// tokens" in microseconds, without touching the resolver.
//
// An Index is materialized from one incremental run's output — the blocks,
// their member refs into the store snapshot, their membership fingerprints
// and their clusterings — and is never mutated afterwards: the service
// publishes it behind an atomic pointer swap, so lookups are lock-free
// reads of immutable state. Rebuilds are incremental: a block whose
// membership fingerprint is unchanged since the previous Index (built under
// the same resolution configuration) reuses its materialized clusters —
// including their stable IDs — and only dirty blocks pay the
// materialization cost. The top-level maps (doc table, token postings) are
// reassembled per commit; that is pointer work, linear in the corpus with a
// tiny constant, not re-materialization.
//
// Cluster IDs are derived from the block's membership fingerprint plus the
// cluster's label ("%016x-%d"), so an entity keeps its ID across commits
// for as long as its block's membership is unchanged — the same stability
// contract incremental resolution gives prepared state.
//
// The encoded form (codec.go) follows the same unit. EncodeTo writes a
// whole index — a base; EncodeCommit writes what one commit changed since
// the index a Manifest describes — the blocks that came and went, the
// collections that grew — as a record to append behind it; Decode reads a
// base and whatever records follow, applies them in order and inverts
// once. A commit therefore costs the bytes of its dirty blocks, and a log
// cut anywhere decodes to exactly the index some earlier commit published.
package serving

import (
	"fmt"
	"sort"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
)

// DocRef locates one store document, aliased from the block index so refs
// flow between the layers without conversion.
type DocRef = blockindex.DocRef

// Member is one document of a cluster, addressed by its stable store
// position.
type Member struct {
	// Collection is the store collection's name.
	Collection string `json:"collection"`
	// Pos is the document's dense position within the collection — stable
	// forever under the store's append-only contract.
	Pos int `json:"pos"`
	// URL is the document's page address, echoed for client convenience.
	URL string `json:"url,omitempty"`

	ref DocRef
}

// Score is a cluster's block-level evaluation against ground truth.
type Score struct {
	Fp   float64 `json:"fp"`
	F    float64 `json:"f"`
	Rand float64 `json:"rand"`
}

// Cluster is one resolved entity: the documents the resolution grouped
// together, with provenance. Clusters are immutable once built.
type Cluster struct {
	// ID is the entity's stable identifier: the block's membership
	// fingerprint plus the cluster label. It survives commits that do not
	// change the block's membership.
	ID string `json:"id"`
	// Block is the resolution block's (possibly merged) collection name.
	Block string `json:"block"`
	// Label is the cluster's index within its block.
	Label int `json:"label"`
	// Source describes which combination produced the clustering.
	Source string `json:"source,omitempty"`
	// Members are the cluster's documents, ascending by store position.
	Members []Member `json:"members"`
	// Score is the block's evaluation, when the committing run scored;
	// shared by every cluster of the block.
	Score *Score `json:"score,omitempty"`

	fp uint64
}

// BlockResolution is one block of a committed run — the serving index's
// unit of materialization and reuse.
type BlockResolution struct {
	// Fingerprint is the block's membership fingerprint (the incremental
	// diff's cache key).
	Fingerprint uint64
	// Name is the block's collection name.
	Name string
	// Members are the refs of the block's documents into the committed
	// store snapshot, in block-document order (Members[i] is block doc i).
	Members []DocRef
	// Resolution labels each block document with its cluster.
	Resolution *core.Resolution
	// Score is the block's evaluation, nil when unscored.
	Score *eval.Result
}

// blockState is one block's materialized serving state: its clusters and
// its search tokens. Reused verbatim across commits while the block's
// fingerprint (and the resolution configuration) is unchanged.
type blockState struct {
	fp       uint64
	name     string
	tokens   []string
	clusters []*Cluster
}

// Index is one committed resolution, inverted for reads. All state is
// immutable after Build; every method is safe for concurrent use without
// locks.
//
// erlint:immutable — the hot read path loads an *Index through an atomic
// pointer with no locks; any post-publish write is a data race.
type Index struct {
	epoch        uint64
	storeVersion uint64
	knobs        string

	colNames []string
	colDocs  []int
	colIndex map[string]int

	blocks   map[uint64]*blockState
	order    []*blockState // block order, for deterministic encoding
	clusters []*Cluster
	byID     map[string]*Cluster
	docs     [][]int32 // [col][pos] -> index into clusters, -1 when unresolved
	tokens   map[string][]int32
}

// Build materializes the serving index of one committed run. prev, when
// non-nil and built under the same knobs string, donates the materialized
// clusters of every block whose fingerprint is unchanged; pass nil for a
// from-scratch build. cols is the store snapshot the run resolved
// (Members refs point into it), storeVersion its version, knobs the
// committing configuration's effective-knobs key, and epoch the new
// index's monotonic publish counter (callers increment it per swap).
func Build(prev *Index, epoch uint64, storeVersion uint64, knobs string,
	cols []*corpus.Collection, blocks []BlockResolution) *Index {

	states := make([]*blockState, len(blocks))
	reusable := prev != nil && prev.knobs == knobs
	for i, br := range blocks {
		if reusable {
			if st, ok := prev.blocks[br.Fingerprint]; ok {
				states[i] = st
				continue
			}
		}
		states[i] = materialize(cols, br)
	}

	colNames := make([]string, len(cols))
	colDocs := make([]int, len(cols))
	for i, col := range cols {
		colNames[i] = col.Name
		colDocs[i] = len(col.Docs)
	}
	return assemble(epoch, storeVersion, knobs, colNames, colDocs, states)
}

// materialize builds one block's serving state from scratch: group the
// block documents by cluster label, sort nothing (members arrive in block
// order, which ascends by store position), and derive the block's search
// tokens.
func materialize(cols []*corpus.Collection, br BlockResolution) *blockState {
	st := &blockState{fp: br.Fingerprint, name: br.Name}
	labels := br.Resolution.Labels
	n := br.Resolution.NumEntities()
	byLabel := make([][]Member, n)
	for i, ref := range br.Members {
		if i >= len(labels) {
			break // malformed resolution; serve what is consistent
		}
		label := labels[i]
		if label < 0 || label >= n {
			continue
		}
		url := ""
		if ref.Col < len(cols) && ref.Doc < len(cols[ref.Col].Docs) {
			url = cols[ref.Col].Docs[ref.Doc].URL
		}
		byLabel[label] = append(byLabel[label], Member{
			Collection: cols[ref.Col].Name,
			Pos:        ref.Doc,
			URL:        url,
			ref:        ref,
		})
	}
	var score *Score
	if br.Score != nil {
		score = &Score{Fp: br.Score.Fp, F: br.Score.F, Rand: br.Score.Rand}
	}
	source := ""
	if br.Resolution != nil {
		source = br.Resolution.Source
	}
	for label, members := range byLabel {
		if len(members) == 0 {
			continue
		}
		st.clusters = append(st.clusters, &Cluster{
			ID:      ClusterID(br.Fingerprint, label),
			Block:   br.Name,
			Label:   label,
			Source:  source,
			Members: members,
			Score:   score,
			fp:      br.Fingerprint,
		})
	}
	st.tokens = blockTokens(br.Name)
	return st
}

// ClusterID derives the stable entity ID of one cluster: the block's
// membership fingerprint in hex plus the cluster's label.
func ClusterID(fp uint64, label int) string {
	return fmt.Sprintf("%016x-%d", fp, label)
}

// blockTokens derives one block's search tokens from its name, normalized
// exactly like blocking keys so queries and blocks meet in one token space.
func blockTokens(name string) []string {
	return blocking.KeyTokens(name, 2)
}

// assemble rebuilds the index's top-level inverted maps from per-block
// states — the shared tail of Build and Decode.
func assemble(epoch, storeVersion uint64, knobs string,
	colNames []string, colDocs []int, states []*blockState) *Index {

	x := &Index{
		epoch:        epoch,
		storeVersion: storeVersion,
		knobs:        knobs,
		colNames:     colNames,
		colDocs:      colDocs,
		colIndex:     make(map[string]int, len(colNames)),
		blocks:       make(map[uint64]*blockState, len(states)),
		order:        states,
		byID:         make(map[string]*Cluster),
		docs:         make([][]int32, len(colNames)),
		tokens:       make(map[string][]int32),
	}
	for i, name := range colNames {
		x.colIndex[name] = i
		table := make([]int32, colDocs[i])
		for j := range table {
			table[j] = -1
		}
		x.docs[i] = table
	}
	for _, st := range states {
		x.blocks[st.fp] = st
		for _, c := range st.clusters {
			ci := int32(len(x.clusters))
			x.clusters = append(x.clusters, c)
			x.byID[c.ID] = c
			for _, m := range c.Members {
				if m.ref.Col < len(x.docs) && m.ref.Doc < len(x.docs[m.ref.Col]) {
					x.docs[m.ref.Col][m.ref.Doc] = ci
				}
			}
		}
		// Every cluster of the block answers for the block's tokens: a
		// token names candidate clusters, the caller disambiguates.
		for _, tok := range st.tokens {
			for i := range st.clusters {
				ci := int32(len(x.clusters) - len(st.clusters) + i)
				x.tokens[tok] = append(x.tokens[tok], ci)
			}
		}
	}
	return x
}

// Epoch is the index's publish counter — which swap produced it.
func (x *Index) Epoch() uint64 { return x.epoch }

// StoreVersion is the store version the committed resolution reflects;
// comparing it with the live store version measures read-path staleness.
func (x *Index) StoreVersion() uint64 { return x.storeVersion }

// Knobs is the effective-knobs key of the resolution configuration that
// committed this index.
func (x *Index) Knobs() string { return x.knobs }

// Clusters is the number of resolved entities.
func (x *Index) Clusters() int { return len(x.clusters) }

// Docs is the number of store documents the index covers.
func (x *Index) Docs() int {
	n := 0
	for _, d := range x.colDocs {
		n += d
	}
	return n
}

// Resolutions returns the committed run the index holds, block by block in
// commit order — what Build was given, less the documents' text: each
// block's fingerprint, name, member refs and, in the same order, their
// labels, with the source and score its clusters share. A run's blocks list
// their documents ascending by (Col, Doc), so sorting the clusters' members
// back into that order recovers Members and Resolution.Labels exactly.
func (x *Index) Resolutions() []BlockResolution {
	type docLabel struct {
		ref   DocRef
		label int
	}
	out := make([]BlockResolution, len(x.order))
	for i, st := range x.order {
		br := BlockResolution{Fingerprint: st.fp, Name: st.name, Resolution: &core.Resolution{}}
		var docs []docLabel
		for _, c := range st.clusters {
			br.Resolution.Source, br.Score = c.Source, (*eval.Result)(c.Score)
			for _, m := range c.Members {
				docs = append(docs, docLabel{m.ref, c.Label})
			}
		}
		sort.Slice(docs, func(a, b int) bool {
			ra, rb := docs[a].ref, docs[b].ref
			return ra.Col < rb.Col || ra.Col == rb.Col && ra.Doc < rb.Doc
		})
		br.Members = make([]DocRef, len(docs))
		br.Resolution.Labels = make([]int, len(docs))
		for j, d := range docs {
			br.Members[j], br.Resolution.Labels[j] = d.ref, d.label
		}
		out[i] = br
	}
	return out
}

// Entity returns the cluster with the given ID, or nil.
func (x *Index) Entity(id string) *Cluster { return x.byID[id] }

// DocEntity returns the cluster containing the document at (collection,
// pos), or nil when the collection is unknown, the position is beyond the
// committed snapshot, or the document resolved into no cluster.
func (x *Index) DocEntity(collection string, pos int) *Cluster {
	ci, ok := x.colIndex[collection]
	if !ok || pos < 0 || pos >= len(x.docs[ci]) {
		return nil
	}
	slot := x.docs[ci][pos]
	if slot < 0 {
		return nil
	}
	return x.clusters[slot]
}

// Hit is one search result: a candidate cluster and how many query tokens
// its block matched.
type Hit struct {
	Cluster *Cluster
	Matched int
}

// Search returns up to limit candidate clusters whose block tokens
// intersect the query's tokens, ordered by tokens matched (descending),
// then cluster size (descending), then ID — deterministic and
// most-specific-first. A limit < 1 selects 20.
func (x *Index) Search(query string, limit int) []Hit {
	if limit < 1 {
		limit = 20
	}
	toks := blocking.KeyTokens(query, 2)
	if len(toks) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(toks))
	matched := make(map[int32]int)
	for _, tok := range toks {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		for _, ci := range x.tokens[tok] {
			matched[ci]++
		}
	}
	hits := make([]Hit, 0, len(matched))
	for ci, m := range matched {
		hits = append(hits, Hit{Cluster: x.clusters[ci], Matched: m})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Matched != hits[j].Matched {
			return hits[i].Matched > hits[j].Matched
		}
		if len(hits[i].Cluster.Members) != len(hits[j].Cluster.Members) {
			return len(hits[i].Cluster.Members) > len(hits[j].Cluster.Members)
		}
		return hits[i].Cluster.ID < hits[j].Cluster.ID
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// Validate checks the index's internal consistency — every member ref
// within the recorded snapshot bounds, every doc-table slot pointing at a
// cluster that contains it. It exists for tests and the read-after-commit
// consistency harness; Build always produces a valid index.
func (x *Index) Validate() error {
	for _, c := range x.clusters {
		for _, m := range c.Members {
			if m.ref.Col < 0 || m.ref.Col >= len(x.colDocs) {
				return fmt.Errorf("serving: cluster %s member references collection %d of %d", c.ID, m.ref.Col, len(x.colDocs))
			}
			if m.ref.Doc < 0 || m.ref.Doc >= x.colDocs[m.ref.Col] {
				return fmt.Errorf("serving: cluster %s member references doc %d beyond collection %q's %d docs at store version %d",
					c.ID, m.ref.Doc, x.colNames[m.ref.Col], x.colDocs[m.ref.Col], x.storeVersion)
			}
		}
	}
	for ci := range x.docs {
		for pos, slot := range x.docs[ci] {
			if slot < 0 {
				continue
			}
			if int(slot) >= len(x.clusters) {
				return fmt.Errorf("serving: doc table points at cluster %d of %d", slot, len(x.clusters))
			}
			found := false
			for _, m := range x.clusters[slot].Members {
				if m.ref.Col == ci && m.ref.Doc == pos {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("serving: doc (%s, %d) maps to cluster %s which does not contain it",
					x.colNames[ci], pos, x.clusters[slot].ID)
			}
		}
	}
	return nil
}
