package ann

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/framing"
)

// encodedIndex is the gob payload: the primary state only — the graph
// adjacency, the packed vectors in wire form (vocabulary terms in intern
// order, per-doc id/weight slices), refs, hashes, levels, high-water
// marks, and the spanning forest of merging candidate edges, from which
// the derived state (union-find, member lists, fingerprints) follows.
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
// returns the version (document count) the encoding reflects, equal to
// Version() at the time of the call. It exists for the
// pipeline.CandidateIndex interface, through which the benchmark prices
// the encoding; nothing decodes the bytes.
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
