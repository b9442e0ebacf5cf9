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
// the same resolution configuration, and scored in both or in neither)
// reuses its materialized clusters — including their stable IDs — and only
// dirty blocks pay the materialization cost. A block keeps the resolution
// and score it was built from, so Committed answers the next incremental
// run's diff as well. What the index keeps beside its blocks is only
// what a read cannot derive from them: the doc table (document → cluster)
// and the token postings (token → blocks) are reassembled per commit, which
// is pointer work, linear in the corpus with a tiny constant, not
// re-materialization. An entity lookup needs neither: a cluster ID names
// its block and its label.
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
// The log is internal/framing records from its first byte — the base, then
// the commits — with no header of its own: internal/persist files it
// behind its magic and key record (*.srv), and the file's format version
// is persist's.
package serving

import (
	"fmt"
	"sort"
	"strconv"

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

// blockState is one block's materialized serving state: its clusters,
// ascending by label, its search tokens, and the resolution and score they
// were built from. Reused verbatim across commits while the block's
// fingerprint, the configuration and whether it is scored are unchanged.
type blockState struct {
	fp       uint64
	name     string
	tokens   []string
	clusters []*Cluster
	res      *core.Resolution
	score    *eval.Result
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
	clusters int           // clusters over all blocks
	docs     [][]*Cluster  // [col][pos] -> the document's cluster, nil when unresolved
	tokens   map[string][]*blockState
}

// Build materializes the serving index of one committed run. prev, when
// non-nil and built under the same knobs string, donates the materialized
// clusters of every block whose fingerprint is unchanged and which is
// scored in both or in neither; pass nil for a from-scratch build. cols is
// the store snapshot the run resolved (Members refs point into it),
// storeVersion its version, knobs the committing configuration's
// effective-knobs key, and epoch the new index's monotonic publish counter
// (callers increment it per swap).
func Build(prev *Index, epoch uint64, storeVersion uint64, knobs string,
	cols []*corpus.Collection, blocks []BlockResolution) *Index {

	states := make([]*blockState, len(blocks))
	reusable := prev != nil && prev.knobs == knobs
	for i, br := range blocks {
		if reusable {
			if st, ok := prev.blocks[br.Fingerprint]; ok && (st.score == nil) == (br.Score == nil) {
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
// block documents by cluster label, sort nothing (clusters come out in
// label order, and members arrive in block order, which ascends by store
// position), and derive the block's search tokens.
func materialize(cols []*corpus.Collection, br BlockResolution) *blockState {
	st := &blockState{fp: br.Fingerprint, name: br.Name, res: br.Resolution, score: br.Score}
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
	score, source := (*Score)(br.Score), br.Resolution.Source
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

// assemble rebuilds the index's doc table and token postings from
// per-block states — the shared tail of Build and Decode.
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
		docs:         make([][]*Cluster, len(colNames)),
		tokens:       make(map[string][]*blockState),
	}
	for i, name := range colNames {
		x.colIndex[name] = i
		x.docs[i] = make([]*Cluster, colDocs[i])
	}
	for _, st := range states {
		x.blocks[st.fp] = st
		x.clusters += len(st.clusters)
		for _, c := range st.clusters {
			for _, m := range c.Members {
				if m.ref.Col < len(x.docs) && m.ref.Doc < len(x.docs[m.ref.Col]) {
					x.docs[m.ref.Col][m.ref.Doc] = c
				}
			}
		}
		// A token names its blocks; Search answers with every cluster of
		// each: candidates, which the caller disambiguates.
		for _, tok := range st.tokens {
			x.tokens[tok] = append(x.tokens[tok], st)
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
func (x *Index) Clusters() int { return x.clusters }

// Docs is the number of store documents the index covers.
func (x *Index) Docs() int {
	n := 0
	for _, d := range x.colDocs {
		n += d
	}
	return n
}

// Committed implements pipeline.CommittedRun: the resolution and score
// the block with membership fingerprint fp was built from.
func (x *Index) Committed(fp uint64) (*core.Resolution, *eval.Result, bool) {
	if x == nil {
		return nil, nil, false
	}
	st, ok := x.blocks[fp]
	if !ok {
		return nil, nil, false
	}
	return st.res, st.score, true
}

// Entity returns the cluster with the given ID, or nil. The ID is read in
// ClusterID's layout — its block's fingerprint, then its label — and only
// the spelling ClusterID gives answers.
func (x *Index) Entity(id string) *Cluster {
	if len(id) < 18 || id[16] != '-' {
		return nil
	}
	fp, err := strconv.ParseUint(id[:16], 16, 64)
	if err != nil {
		return nil
	}
	label, err := strconv.Atoi(id[17:])
	if err != nil {
		return nil
	}
	st := x.blocks[fp]
	if st == nil {
		return nil
	}
	i := sort.Search(len(st.clusters), func(i int) bool { return st.clusters[i].Label >= label })
	if i < len(st.clusters) && st.clusters[i].ID == id {
		return st.clusters[i]
	}
	return nil
}

// DocEntity returns the cluster containing the document at (collection,
// pos), or nil when the collection is unknown, the position is beyond the
// committed snapshot, or the document resolved into no cluster.
func (x *Index) DocEntity(collection string, pos int) *Cluster {
	ci, ok := x.colIndex[collection]
	if !ok || pos < 0 || pos >= len(x.docs[ci]) {
		return nil
	}
	return x.docs[ci][pos]
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
	matched := make(map[*blockState]int)
	for _, tok := range toks {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		for _, st := range x.tokens[tok] {
			matched[st]++
		}
	}
	n := 0
	for st := range matched {
		n += len(st.clusters)
	}
	hits := make([]Hit, 0, n)
	for st, m := range matched {
		for _, c := range st.clusters {
			hits = append(hits, Hit{Cluster: c, Matched: m})
		}
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
	for _, st := range x.order {
		for _, c := range st.clusters {
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
	}
	for ci := range x.docs {
		for pos, c := range x.docs[ci] {
			if c == nil {
				continue
			}
			found := false
			for _, m := range c.Members {
				if m.ref.Col == ci && m.ref.Doc == pos {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("serving: doc (%s, %d) maps to cluster %s which does not contain it",
					x.colNames[ci], pos, c.ID)
			}
		}
	}
	return nil
}
