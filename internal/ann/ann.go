// Package ann is the incremental approximate-nearest-neighbor candidate
// index behind the global blocking schemes (canopy, sorted neighborhood).
// The exact schemes compare every record pair — O(N²) per run, the last
// O(corpus) path in the Block stage — while this index inserts each new
// document into a layered proximity graph (HNSW: Malkov & Yashunin) once
// and discovers its candidate partners with a near-logarithmic neighbor
// query. The scheme's blocking.ApproxPolicy turns the query results into
// candidate edges, an incremental union-find folds the edges into
// key-connected components, and the components feed RunIncremental as
// membership-fingerprinted blocks exactly like the key index —
// so the resolve path downstream of the Block stage cannot tell the two
// apart.
//
// Documents are embedded as binary token-set vectors over their
// normalized blocking keys (the same token set canopy's exact Jaccard
// compares), and every similarity that accepts or rejects an edge is an
// exact textsim.PackedCosine over those vectors — the graph only decides
// which pairs get examined, never how they score. On binary sets cosine
// bounds Jaccard from above, so a pair the exact canopy links is only
// ever missed by not being surfaced among the efSearch nearest; recall is
// the single quantity the approximation trades, and the eval harness
// measures it against the exact scheme.
//
// Determinism: graph levels are drawn from each document's content hash
// (blocking.DocHash), neighbor selection breaks distance ties by insertion
// id, and vocabulary interning follows insertion order — so the same
// corpus ingested in the same order builds the same graph, the same
// edges, and the same blocks on every run. Batch splits that keep the
// flattened (collection, position) order — whole collections per batch,
// or growth confined to the tail collection — reproduce the one-shot
// build exactly; other append-only splits stay correct and
// recall-governed but may link through different neighbors than a fresh
// rebuild would.
//
// The server keeps the graph in memory only: after a restart the first
// resolve re-inserts the replayed corpus. EncodeTo writes the graph's
// primary state as one internal/framing record, for the
// pipeline.CandidateIndex interface; no server path calls it, and nothing
// decodes the bytes.
package ann

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/textsim"
)

// DocRef addresses one document by collection and position, shared with
// the key index so the pipeline assembles both the same way.
type DocRef = blockindex.DocRef

// Graph parameters. M is the per-node degree bound (layer 0 keeps 2M);
// DefaultEfConstruction sizes the candidate beam while linking a new node
// (a constant: no caller asks for another value, so neither the encoding nor
// Stats record it); EfSearch sizes the neighbor query the candidate edges
// come from. Larger ef raises recall and cost roughly linearly.
const (
	DefaultM              = 12
	DefaultEfConstruction = 100
	DefaultEfSearch       = 64
)

// maxGraphLevel caps the level draw; beyond this a level adds nothing at
// any plausible corpus size.
const maxGraphLevel = 30

// UpdateStats reports what one Update changed; Edges is the field this
// index fills beyond the tracker's.
type UpdateStats = blockindex.UpdateStats

// Config assembles a CandidateIndex.
type Config struct {
	// Scheme is the global scheme being approximated; its ApproxPolicy
	// decides which queried neighbors become candidate edges.
	Scheme blocking.ApproxScheme
	// Keys derives each document's blocking keys; nil selects the
	// collection-name KeyFunc.
	Keys blockindex.KeyFunc
	// M and EfSearch are the graph knobs; zero selects the package
	// defaults. M must be at least 2.
	M        int
	EfSearch int
}

// withDefaults resolves the zero knobs.
func (c Config) withDefaults() Config {
	if c.Keys == nil {
		c.Keys = blockindex.CollectionNameKey
	}
	if c.M == 0 {
		c.M = DefaultM
	}
	if c.EfSearch == 0 {
		c.EfSearch = DefaultEfSearch
	}
	return c
}

// CandidateIndex is the incremental HNSW candidate index. All methods
// are safe for concurrent use; calls serialize on one mutex, like the
// key index.
type CandidateIndex struct {
	mu      sync.Mutex
	policy  blocking.ApproxPolicy
	keys    blockindex.KeyFunc
	m       int
	efSrch  int
	levelML float64 // 1/ln(M), the level-draw scale

	vocab *textsim.Vocab
	vecs  []*textsim.PackedVector
	// primary maps each distinct key vector (by vecKey) to the first node
	// that carries it — the only node with that vector that lives in the
	// graph. Later documents with an identical vector stay out of the
	// adjacency lists (a flood of zero-distance copies would evict every
	// bridge out of the cluster under the degree bound and disconnect the
	// graph) and instead join the primary's component through one
	// candidate edge.
	primary map[string]int32
	// levels[id] is the node's top layer; neighbors[id][l] its adjacency
	// at layer l (l <= levels[id]).
	levels    []int32
	neighbors [][][]int32
	entry     int32 // entry point node, -1 while empty
	maxLevel  int32

	// edges is the append-only log of component-merging candidate edges —
	// a spanning forest of the block graph, replayed on decode to rebuild
	// the components.
	edges [][2]int32
	// comps tracks which documents are inserted and which component each
	// is in — the tracker the key index uses, fed neighbor-query
	// edges instead of posting edges.
	comps *blockindex.Components
}

// New assembles an empty index.
func New(cfg Config) (*CandidateIndex, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("ann: config has no approximable scheme")
	}
	if v, ok := cfg.Scheme.(blocking.Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.M < 0 || cfg.M == 1 {
		return nil, fmt.Errorf("ann: graph degree M=%d cannot hold a proximity graph (want >= 2, or 0 for the default)", cfg.M)
	}
	if cfg.EfSearch < 0 {
		return nil, fmt.Errorf("ann: negative search ef %d", cfg.EfSearch)
	}
	cfg = cfg.withDefaults()
	return &CandidateIndex{
		policy:  cfg.Scheme.ApproxPolicy(),
		keys:    cfg.Keys,
		m:       cfg.M,
		efSrch:  cfg.EfSearch,
		levelML: 1 / math.Log(float64(cfg.M)),
		vocab:   textsim.NewVocab(),
		primary: make(map[string]int32),
		entry:   -1,
		comps:   blockindex.NewComponents(),
	}, nil
}

// Version counts inserted documents; it increases exactly when the index
// changes, so equal versions mean equal indexes (for one configuration).
func (x *CandidateIndex) Version() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.comps.Version()
}

// Update inserts every document of cols not yet indexed and returns what
// changed. cols must be the same append-only corpus the index has seen
// so far; anything else is ErrOutOfSync.
func (x *CandidateIndex) Update(cols []*corpus.Collection) (UpdateStats, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.update(cols)
}

func (x *CandidateIndex) update(cols []*corpus.Collection) (UpdateStats, error) {
	delta, err := x.comps.Begin(cols, func(col *corpus.Collection, doc corpus.Document) []string {
		return strings.Fields(blocking.NormalizeKey(strings.Join(x.keys(col, doc), " ")))
	})
	if err != nil {
		return UpdateStats{}, err
	}

	// Graph insertion is sequential: determinism requires a fixed
	// insertion order, and the vocabulary interns as it goes.
	for _, d := range delta {
		// Binary token-set vector: the support canopy's exact Jaccard
		// compares, packed through the index vocabulary.
		sv := make(textsim.SparseVector, len(d.Keys))
		for _, tok := range d.Keys {
			sv[tok] = 1
		}
		vec := sv.Pack(x.vocab)
		x.vecs = append(x.vecs, vec)
		key := vecKey(vec)
		if prim, dup := x.primary[key]; dup {
			// Exact-duplicate key vector: the graph already holds this
			// point. The copy stays out of the graph — one candidate edge
			// to the primary carries it into the component, and searches
			// keep finding the primary.
			x.levels = append(x.levels, 0)
			x.neighbors = append(x.neighbors, make([][]int32, 1))
			x.applyPolicy(d.ID, []distNode{{dist: x.distTo(vec, prim), id: prim}})
			continue
		}
		x.primary[key] = d.ID
		level := levelFor(d.Hash, x.levelML)
		x.levels = append(x.levels, level)
		x.neighbors = append(x.neighbors, make([][]int32, level+1))

		// Insert into the graph; the layer-0 beam doubles as the neighbor
		// query the candidate edges come from.
		x.applyPolicy(d.ID, x.insert(d.ID))
	}

	stats := x.comps.Commit(cols, delta)
	stats.Edges = len(x.edges)
	return stats, nil
}

// vecKey is the canonical byte string of a packed vector — term ids and
// weights in their sorted order — used to detect exact-duplicate key
// vectors at insertion time. Term ids are interned in lexicographic
// order through one vocabulary, so equal keys mean equal token sets.
func vecKey(p *textsim.PackedVector) string {
	buf := make([]byte, 0, 12*p.Len())
	for i, id := range p.IDs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Weights[i]))
	}
	return string(buf)
}

// applyPolicy turns one insertion's neighbor query results (nearest
// first) into candidate edges under the scheme's policy, merging the
// document's component with each accepted neighbor's.
func (x *CandidateIndex) applyPolicy(id int32, cand []distNode) {
	if x.policy.MaxNeighbors > 0 && len(cand) > x.policy.MaxNeighbors {
		cand = cand[:x.policy.MaxNeighbors]
	}
	if len(cand) > x.efSrch {
		cand = cand[:x.efSrch]
	}
	q := x.vecs[id]
	for _, n := range cand {
		if x.policy.MinSim > 0 && textsim.PackedCosine(q, x.vecs[n.id]) < x.policy.MinSim {
			// cand is ordered nearest-first and distance is exactly
			// 1-cosine, so every later neighbor fails the threshold too.
			break
		}
		if x.comps.Merge(id, n.id) {
			x.edges = append(x.edges, [2]int32{id, n.id})
		}
	}
}

// UpdateMembership inserts cols' delta and returns the resulting block
// membership as one atomic operation, so the returned refs lie within
// cols even when a concurrent updater is advancing the index. A corpus
// already overtaken by a newer snapshot returns ErrOutOfSync exactly like
// Update, and leaves the index as it was.
func (x *CandidateIndex) UpdateMembership(cols []*corpus.Collection) (UpdateStats, [][]DocRef, []uint64, error) {
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
	// Docs is the number of inserted documents.
	Docs int `json:"docs"`
	// Collections is the number of indexed collections.
	Collections int `json:"collections"`
	// Blocks is the number of candidate-connected components.
	Blocks int `json:"blocks"`
	// Edges is the number of component-merging candidate edges.
	Edges int `json:"edges"`
	// Terms is the vocabulary size the vectors are packed over.
	Terms int `json:"terms"`
	// MaxLevel is the top graph layer in use.
	MaxLevel int `json:"max_level"`
	// M and EfSearch are the graph knobs.
	M        int `json:"m"`
	EfSearch int `json:"ef_search"`
	// Version counts inserted documents.
	Version uint64 `json:"version"`
}

// Stats reports the index's current shape.
func (x *CandidateIndex) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	maxLevel := 0
	if x.entry >= 0 {
		maxLevel = int(x.maxLevel)
	}
	return Stats{
		Docs:        x.comps.Docs(),
		Collections: x.comps.Collections(),
		Blocks:      x.comps.Blocks(),
		Edges:       len(x.edges),
		Terms:       x.vocab.Len(),
		MaxLevel:    maxLevel,
		M:           x.m,
		EfSearch:    x.efSrch,
		Version:     x.comps.Version(),
	}
}
