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
// run's diff as well. Beside its blocks the index keeps which blocks hold
// each collection's documents and the token postings (token → blocks),
// reassembled per commit in time linear in the blocks, and one row per
// collection mapping a document position to its cluster. A row is a
// function of the collection's length and of the blocks holding it, so a
// commit rebuilds only the rows of the collections its dirty blocks touch
// and shares every other row with the previous Index. A document lookup is
// one row read; an entity lookup needs no table: a cluster ID names its
// block and its label.
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
	"slices"
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
	Score *eval.Result `json:"score,omitempty"`
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
	// store snapshot, in block-document order (Members[i] is block doc i),
	// which ascends by (Col, Doc) under every blocker. The index keeps the
	// slice as the block's refs and never writes to it: blockindex hands
	// out cached member lists that must not be mutated.
	Members []DocRef
	// Resolution labels each block document with its cluster.
	Resolution *core.Resolution
	// Score is the block's evaluation, nil when unscored.
	Score *eval.Result
}

// blockState is one block's materialized serving state: its clusters,
// indexed by label, its search tokens, its refs ascending by (Col, Doc)
// with refs[i] labelled res.Labels[i], the collections those refs lie in,
// ascending, and the resolution and score it was built from. Reused
// verbatim across commits while the block's fingerprint, the configuration
// and whether it is scored are unchanged.
type blockState struct {
	fp       uint64
	name     string
	tokens   []string
	clusters []*Cluster
	refs     []DocRef
	cols     []int
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

	blocks    map[uint64]*blockState
	order     []*blockState   // block order, for deterministic encoding
	clusters  int             // clusters over all blocks
	colBlocks [][]*blockState // [col] -> the blocks holding its documents, in block order
	docs      [][]*Cluster    // [col][pos] -> the document's cluster, nil when unresolved
	tokens    map[string][]*blockState
}

// Build materializes the serving index of one committed run. prev, when
// non-nil and built under the same knobs string, donates the materialized
// clusters of every block whose fingerprint is unchanged and which is
// scored in both or in neither, and the document row of every collection
// whose length and blocks are unchanged; pass nil for a from-scratch
// build. cols is the store snapshot the run resolved (Members refs point
// into it), storeVersion its version, knobs the committing configuration's
// effective-knobs key, and epoch the new index's monotonic publish counter
// (callers increment it per swap).
func Build(prev *Index, epoch uint64, storeVersion uint64, knobs string,
	cols []*corpus.Collection, blocks []BlockResolution) *Index {

	states := make([]*blockState, len(blocks))
	if prev != nil && prev.knobs != knobs {
		prev = nil
	}
	for i, br := range blocks {
		if prev != nil {
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
	return assemble(prev, epoch, storeVersion, knobs, colNames, colDocs, states)
}

// materialize builds one block's serving state from scratch over the
// run's own refs and labels.
func materialize(cols []*corpus.Collection, br BlockResolution) *blockState {
	st := &blockState{fp: br.Fingerprint, name: br.Name, tokens: blockTokens(br.Name),
		refs: br.Members, res: br.Resolution, score: br.Score}
	st.fill(func(i int) Member {
		ref := br.Members[i]
		return Member{Collection: cols[ref.Col].Name, Pos: ref.Doc, URL: cols[ref.Col].Docs[ref.Doc].URL}
	})
	return st
}

// fill derives what a block's refs and labels determine: its clusters in
// label order, each listing its members in ref order (member(i) renders
// refs[i]), and the collections the refs lie in. Labels are dense, as every
// clustering numbers them, so no cluster is empty.
func (st *blockState) fill(member func(i int) Member) {
	st.clusters = make([]*Cluster, st.res.NumEntities())
	for label := range st.clusters {
		st.clusters[label] = &Cluster{ID: ClusterID(st.fp, label), Block: st.name, Label: label,
			Source: st.res.Source, Score: st.score}
	}
	for i, ref := range st.refs {
		c := st.clusters[st.res.Labels[i]]
		c.Members = append(c.Members, member(i))
		if n := len(st.cols); n == 0 || st.cols[n-1] != ref.Col {
			st.cols = append(st.cols, ref.Col)
		}
	}
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

// assemble rebuilds the index's tables from per-block states — the shared
// tail of Build and Decode. The collection → blocks table and the token
// postings take time linear in the blocks. A collection's document row is
// a function of its length and of the blocks holding it, so it is shared
// with donor (nil for none) when both are unchanged and rebuilt from those
// blocks' refs otherwise.
func assemble(donor *Index, epoch, storeVersion uint64, knobs string,
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
		colBlocks:    make([][]*blockState, len(colNames)),
		docs:         make([][]*Cluster, len(colNames)),
		tokens:       make(map[string][]*blockState),
	}
	for i, name := range colNames {
		x.colIndex[name] = i
	}
	for _, st := range states {
		x.blocks[st.fp] = st
		x.clusters += len(st.clusters)
		for _, ci := range st.cols {
			x.colBlocks[ci] = append(x.colBlocks[ci], st)
		}
		// A token names its blocks; Search answers with every cluster of
		// each: candidates, which the caller disambiguates.
		for _, tok := range st.tokens {
			x.tokens[tok] = append(x.tokens[tok], st)
		}
	}
	for ci, held := range x.colBlocks {
		if donor != nil && ci < len(donor.docs) && len(donor.docs[ci]) == colDocs[ci] && slices.Equal(donor.colBlocks[ci], held) {
			x.docs[ci] = donor.docs[ci]
			continue
		}
		x.docs[ci] = make([]*Cluster, colDocs[ci])
		for _, st := range held {
			// The block's refs ascend by (Col, Doc): collection ci's are one run.
			i, _ := slices.BinarySearchFunc(st.refs, ci, func(ref DocRef, col int) int { return ref.Col - col })
			for ; i < len(st.refs) && st.refs[i].Col == ci; i++ {
				x.docs[ci][st.refs[i].Doc] = st.clusters[st.res.Labels[i]]
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
	if st == nil || label < 0 || label >= len(st.clusters) || st.clusters[label].ID != id {
		return nil
	}
	return st.clusters[label]
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

// Validate checks the index's internal consistency: every block ref
// within the recorded snapshot bounds, and its document row naming the
// cluster its label gives. It exists for tests and the read-after-commit
// consistency harness; Build always produces a valid index.
func (x *Index) Validate() error {
	for _, st := range x.order {
		for i, ref := range st.refs {
			if ref.Col < 0 || ref.Col >= len(x.colDocs) {
				return fmt.Errorf("serving: block %016x references collection %d of %d", st.fp, ref.Col, len(x.colDocs))
			}
			if ref.Doc < 0 || ref.Doc >= x.colDocs[ref.Col] {
				return fmt.Errorf("serving: block %016x references doc %d beyond collection %q's %d docs at store version %d",
					st.fp, ref.Doc, x.colNames[ref.Col], x.colDocs[ref.Col], x.storeVersion)
			}
			if c := st.clusters[st.res.Labels[i]]; x.docs[ref.Col][ref.Doc] != c {
				return fmt.Errorf("serving: doc (%s, %d) does not map to its cluster %s", x.colNames[ref.Col], ref.Doc, c.ID)
			}
		}
	}
	return nil
}
