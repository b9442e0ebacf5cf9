package ann

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/textsim"
)

// annMagic heads every encoded index; the digit is the format version.
const annMagic = "ERANN001"

// ErrCodecVersion reports an encoded index from an unsupported format
// version; ErrCodecCorrupt reports structural damage. Callers treat both
// as "no usable index": correctness never depends on the encoded form —
// the index rebuilds from the corpus — only the restart head-start does.
var (
	ErrCodecVersion = errors.New("ann: unsupported index format version")
	ErrCodecCorrupt = errors.New("ann: encoded index is corrupt")
)

// crcTable is the Castagnoli table, matching the persist layer's journal.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodedIndex is the gob payload: the primary state only — the graph
// adjacency, the packed vectors in wire form (vocabulary terms in intern
// order, per-doc id/weight slices), refs, hashes, levels, high-water
// marks, and the spanning forest of merging candidate edges. Derived
// state (union-find, member lists, fingerprints) is rebuilt on decode by
// replaying the edges, which is cheap next to re-running the neighbor
// searches that found them.
type encodedIndex struct {
	M              int
	EfConstruction int
	EfSearch       int
	Cols           []encodedCol
	Refs           []DocRef
	Hashes         []uint64
	Levels         []int32
	Terms          []string
	VecIDs         [][]int32
	VecWeights     [][]float64
	Neighbors      [][][]int32
	Entry          int32
	MaxLevel       int32
	Edges          [][2]int32
}

type encodedCol struct {
	Name    string
	Indexed int
}

// EncodeTo writes the index in its versioned, checksummed wire form and
// returns the version (document count) the encoding reflects — what
// callers compare against Version() to skip redundant saves.
func (x *CandidateIndex) EncodeTo(w io.Writer) (uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()

	enc := encodedIndex{
		M:              x.m,
		EfConstruction: DefaultEfConstruction,
		EfSearch:       x.efSrch,
		Cols:           make([]encodedCol, x.comps.Collections()),
		Refs:           x.comps.Refs(),
		Hashes:         x.comps.Hashes(),
		Levels:         x.levels,
		Terms:          make([]string, x.vocab.Len()),
		VecIDs:         make([][]int32, len(x.vecs)),
		VecWeights:     make([][]float64, len(x.vecs)),
		Neighbors:      x.neighbors,
		Entry:          x.entry,
		MaxLevel:       x.maxLevel,
		Edges:          x.edges,
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

	if _, err := io.WriteString(w, annMagic); err != nil {
		return 0, fmt.Errorf("ann: writing header: %w", err)
	}
	crc := crc32.New(crcTable)
	if err := gob.NewEncoder(io.MultiWriter(w, crc)).Encode(enc); err != nil {
		return 0, fmt.Errorf("ann: encoding index: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return 0, fmt.Errorf("ann: writing checksum: %w", err)
	}
	return x.comps.Version(), nil
}

// Decode reads an index written by EncodeTo and rebuilds it under cfg,
// which must describe the same configuration (scheme, key function,
// graph knobs) that produced it — the index records only the knobs, so
// the caller's storage key must carry the rest. A knob mismatch is an
// error, not corruption: the persisted graph was built under different
// parameters and the caller should rebuild from the corpus instead.
func Decode(r io.Reader, cfg Config) (*CandidateIndex, error) {
	header := make([]byte, len(annMagic))
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCodecCorrupt, err)
	}
	if string(header) != annMagic {
		if string(header[:5]) == annMagic[:5] {
			return nil, fmt.Errorf("%w: %q", ErrCodecVersion, header)
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrCodecCorrupt, header)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCodecCorrupt, err)
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: payload shorter than its checksum", ErrCodecCorrupt)
	}
	payload, sum := body[:len(body)-4], binary.LittleEndian.Uint32(body[len(body)-4:])
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, trailer declares %08x", ErrCodecCorrupt, got, sum)
	}
	var enc encodedIndex
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&enc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}

	x, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if enc.M != x.m || enc.EfConstruction != DefaultEfConstruction || enc.EfSearch != x.efSrch {
		return nil, fmt.Errorf("ann: encoded index was built with M=%d efc=%d efs=%d, configuration wants M=%d efc=%d efs=%d; rebuild from the corpus",
			enc.M, enc.EfConstruction, enc.EfSearch, x.m, DefaultEfConstruction, x.efSrch)
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
