package ann

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/framing"
	"repro/internal/textsim"
)

// ErrCodecCorrupt reports an encoded index that fails a structural check:
// a damaged record, an unreadable payload, a graph that does not hold
// together. Callers treat it as "no usable index": correctness never
// depends on the encoded form — the index rebuilds from the corpus.
var ErrCodecCorrupt = errors.New("ann: encoded index is corrupt")

// encodedIndex is the gob payload: the primary state only — the graph
// adjacency, the packed vectors in wire form (vocabulary terms in intern
// order, per-doc id/weight slices), refs, hashes, levels, high-water
// marks, and the spanning forest of merging candidate edges. Derived
// state (union-find, member lists, fingerprints) is rebuilt on decode by
// replaying the edges, which is cheap next to re-running the neighbor
// searches that found them.
type encodedIndex struct {
	M          int
	EfSearch   int
	Cols       []encodedCol
	Refs       []DocRef
	Hashes     []uint64
	Levels     []int32
	Terms      []string
	VecIDs     [][]int32
	VecWeights [][]float64
	Neighbors  [][][]int32
	Entry      int32
	MaxLevel   int32
	Edges      [][2]int32
}

type encodedCol struct {
	Name    string
	Indexed int
}

// EncodeTo writes the index as one framing record holding its gob and
// returns the version (document count) the encoding reflects — what
// callers compare against Version() to skip redundant saves.
func (x *CandidateIndex) EncodeTo(w io.Writer) (uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()

	enc := encodedIndex{
		M:          x.m,
		EfSearch:   x.efSrch,
		Cols:       make([]encodedCol, x.comps.Collections()),
		Refs:       x.comps.Refs(),
		Hashes:     x.comps.Hashes(),
		Levels:     x.levels,
		Terms:      make([]string, x.vocab.Len()),
		VecIDs:     make([][]int32, len(x.vecs)),
		VecWeights: make([][]float64, len(x.vecs)),
		Neighbors:  x.neighbors,
		Entry:      x.entry,
		MaxLevel:   x.maxLevel,
		Edges:      x.edges,
	}
	for i := range enc.Cols {
		enc.Cols[i].Name, enc.Cols[i].Indexed = x.comps.Collection(i)
	}
	for i := 0; i < x.vocab.Len(); i++ {
		enc.Terms[i] = x.vocab.Term(int32(i))
	}
	for i, v := range x.vecs {
		enc.VecIDs[i] = v.IDs
		enc.VecWeights[i] = v.Weights
	}

	rec, err := framing.Record(func(w io.Writer) error { return gob.NewEncoder(w).Encode(enc) })
	if err != nil {
		return 0, fmt.Errorf("ann: encoding index: %w", err)
	}
	if _, err := w.Write(rec); err != nil {
		return 0, fmt.Errorf("ann: writing index: %w", err)
	}
	return x.comps.Version(), nil
}

// Decode reads an index written by EncodeTo — exactly one record, nothing
// behind it — and rebuilds it under cfg, which must describe the same configuration (scheme, key function,
// graph knobs) that produced it — the index records only the knobs, so
// the caller's storage key must carry the rest. A knob mismatch is an
// error, not corruption: the encoded graph was built under different
// parameters and the caller should rebuild from the corpus instead. No
// server path decodes a graph; the pipeline's restart-equivalence test
// (TestANNBlockerRestartEqualsFresh) does.
func Decode(r io.Reader, cfg Config) (*CandidateIndex, error) {
	payload, err := framing.ReadOne(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}
	var enc encodedIndex
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&enc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}

	x, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if enc.M != x.m || enc.EfSearch != x.efSrch {
		return nil, fmt.Errorf("ann: encoded index was built with M=%d efs=%d, configuration wants M=%d efs=%d; rebuild from the corpus",
			enc.M, enc.EfSearch, x.m, x.efSrch)
	}

	n := len(enc.Refs)
	if len(enc.Hashes) != n || len(enc.Levels) != n ||
		len(enc.VecIDs) != n || len(enc.VecWeights) != n || len(enc.Neighbors) != n {
		return nil, fmt.Errorf("%w: %d refs but %d hashes, %d levels, %d vectors, %d weight sets, %d adjacencies",
			ErrCodecCorrupt, n, len(enc.Hashes), len(enc.Levels), len(enc.VecIDs), len(enc.VecWeights), len(enc.Neighbors))
	}
	if n > 0 && (enc.Entry < 0 || int(enc.Entry) >= n) {
		return nil, fmt.Errorf("%w: entry point %d of %d documents", ErrCodecCorrupt, enc.Entry, n)
	}

	for _, c := range enc.Cols {
		x.comps.AddCollection(c.Name, c.Indexed)
	}
	// Rebuild the vocabulary in intern order so term IDs keep their
	// meaning for both the stored vectors and every future insertion.
	terms := x.vocab.Len() // 0; kept for clarity of the invariant below
	for _, t := range enc.Terms {
		x.vocab.ID(t)
	}
	if x.vocab.Len() != terms+len(enc.Terms) {
		return nil, fmt.Errorf("%w: duplicate vocabulary terms", ErrCodecCorrupt)
	}
	nTerms := int32(x.vocab.Len())
	for i := 0; i < n; i++ {
		ids := enc.VecIDs[i]
		if len(ids) > 0 && ids[len(ids)-1] >= nTerms {
			return nil, fmt.Errorf("%w: vector %d references term %d of %d", ErrCodecCorrupt, i, ids[len(ids)-1], nTerms)
		}
		vec, err := textsim.PackedFromParts(ids, enc.VecWeights[i])
		if err != nil {
			return nil, fmt.Errorf("%w: vector %d: %v", ErrCodecCorrupt, i, err)
		}
		if enc.Levels[i] < 0 || enc.Levels[i] > maxGraphLevel {
			return nil, fmt.Errorf("%w: document %d at level %d", ErrCodecCorrupt, i, enc.Levels[i])
		}
		if len(enc.Neighbors[i]) != int(enc.Levels[i])+1 {
			return nil, fmt.Errorf("%w: document %d at level %d has %d adjacency layers",
				ErrCodecCorrupt, i, enc.Levels[i], len(enc.Neighbors[i]))
		}
		for _, layer := range enc.Neighbors[i] {
			for _, nb := range layer {
				if nb < 0 || int(nb) >= n {
					return nil, fmt.Errorf("%w: document %d links to %d of %d", ErrCodecCorrupt, i, nb, n)
				}
			}
		}
		id := x.comps.AddDoc(enc.Refs[i], enc.Hashes[i])
		x.vecs = append(x.vecs, vec)
		// First occurrence wins, as at insertion time: the primary is the
		// node in the graph, later copies are duplicate satellites.
		key := vecKey(vec)
		if _, ok := x.primary[key]; !ok {
			x.primary[key] = id
		}
	}
	x.levels = enc.Levels
	x.neighbors = enc.Neighbors
	if n > 0 {
		x.entry = enc.Entry
		x.maxLevel = enc.MaxLevel
	}
	// Replay the merging edges to rebuild the union-find and member
	// lists — the spanning forest reproduces the components exactly.
	for _, e := range enc.Edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("%w: candidate edge (%d, %d) of %d documents", ErrCodecCorrupt, e[0], e[1], n)
		}
		x.comps.Merge(e[0], e[1])
	}
	x.edges = enc.Edges
	return x, nil
}
