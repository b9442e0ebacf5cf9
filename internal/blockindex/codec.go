package blockindex

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/framing"
)

// ErrCodecCorrupt reports an encoded index that fails a structural check:
// a damaged record, an unreadable payload, state that does not hold
// together. Callers treat it as "no usable index": correctness never
// depends on the encoded form — the index rebuilds from the corpus — only
// the restart head-start does. The file around the record, and its format
// version, are internal/persist's.
var ErrCodecCorrupt = errors.New("blockindex: encoded index is corrupt")

// encodedIndex is the gob payload: the primary state only — postings,
// document refs and hashes, collection high-water marks. Derived state
// (union-find, member lists, fingerprints) is rebuilt on decode from the
// postings, which is cheap next to re-running key extraction over the
// corpus. EncodeTo writes one posting map; files from before the index
// was a single map hold one per hash partition (and a Shards count gob
// skips), which Decode merges.
type encodedIndex struct {
	Cols     []encodedCol
	Refs     []DocRef
	Hashes   []uint64
	Postings []map[string][]int32
}

type encodedCol struct {
	Name    string
	Indexed int
}

// EncodeTo writes the index as one framing record holding its gob and
// returns the version (document count) the encoding reflects — what
// callers compare against Version() to skip redundant saves.
func (x *Index) EncodeTo(w io.Writer) (uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()

	enc := encodedIndex{
		Cols:     make([]encodedCol, x.comps.Collections()),
		Refs:     x.comps.Refs(),
		Hashes:   x.comps.Hashes(),
		Postings: []map[string][]int32{x.postings},
	}
	for i := range enc.Cols {
		enc.Cols[i].Name, enc.Cols[i].Indexed = x.comps.Collection(i)
	}

	rec, err := framing.Record(func(w io.Writer) error { return gob.NewEncoder(w).Encode(enc) })
	if err != nil {
		return 0, fmt.Errorf("blockindex: encoding index: %w", err)
	}
	if _, err := w.Write(rec); err != nil {
		return 0, fmt.Errorf("blockindex: writing index: %w", err)
	}
	return x.comps.Version(), nil
}

// Decode reads an index written by EncodeTo — exactly one record, nothing
// behind it — and rebuilds it under cfg, which must describe the same
// configuration (scheme, key function) that produced it: the encoding
// records neither, so the caller's storage key must carry them.
func Decode(r io.Reader, cfg Config) (*Index, error) {
	payload, err := framing.ReadOne(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}
	var enc encodedIndex
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&enc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}
	if len(enc.Refs) != len(enc.Hashes) {
		return nil, fmt.Errorf("%w: %d refs but %d hashes", ErrCodecCorrupt, len(enc.Refs), len(enc.Hashes))
	}

	x, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range enc.Cols {
		x.comps.AddCollection(c.Name, c.Indexed)
	}
	for i := range enc.Refs {
		x.comps.AddDoc(enc.Refs[i], enc.Hashes[i])
	}
	n := int32(len(enc.Refs))
	for _, postings := range enc.Postings {
		for key, ids := range postings {
			if len(ids) == 0 {
				return nil, fmt.Errorf("%w: posting %q holds no documents", ErrCodecCorrupt, key)
			}
			if _, dup := x.postings[key]; dup {
				return nil, fmt.Errorf("%w: posting %q appears in two maps", ErrCodecCorrupt, key)
			}
			for _, id := range ids {
				if id < 0 || id >= n {
					return nil, fmt.Errorf("%w: posting %q references document %d of %d", ErrCodecCorrupt, key, id, n)
				}
			}
			// Re-link the posting's component: every member unions with
			// the first, reproducing the star the live path built.
			for _, id := range ids[1:] {
				x.comps.Merge(ids[0], id)
			}
			x.postings[key] = ids
		}
	}
	return x, nil
}
