package blockindex

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// indexMagic heads every encoded index; the digit is the format version.
const indexMagic = "ERIDX001"

// ErrCodecVersion reports an encoded index from an unsupported format
// version; ErrCodecCorrupt reports structural damage. Callers treat both
// as "no usable index": correctness never depends on the encoded form —
// the index rebuilds from the corpus — only the restart head-start does.
var (
	ErrCodecVersion = errors.New("blockindex: unsupported index format version")
	ErrCodecCorrupt = errors.New("blockindex: encoded index is corrupt")
)

// crcTable is the Castagnoli table, matching the persist layer's journal.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodedIndex is the gob payload: the primary state only — postings,
// document refs and hashes, collection high-water marks. Derived state
// (union-find, member lists, fingerprints) is rebuilt on decode from the
// postings, which is cheap next to re-running key extraction over the
// corpus.
type encodedIndex struct {
	Shards   int
	Cols     []encodedCol
	Refs     []DocRef
	Hashes   []uint64
	Postings []map[string][]int32
}

type encodedCol struct {
	Name    string
	Indexed int
}

// EncodeTo writes the index in its versioned, checksummed wire form and
// returns the version (document count) the encoding reflects — what
// callers compare against Version() to skip redundant saves.
func (x *Index) EncodeTo(w io.Writer) (uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()

	enc := encodedIndex{
		Shards:   len(x.shards),
		Cols:     make([]encodedCol, x.comps.Collections()),
		Refs:     x.comps.Refs(),
		Hashes:   x.comps.Hashes(),
		Postings: make([]map[string][]int32, len(x.shards)),
	}
	for i := range enc.Cols {
		enc.Cols[i].Name, enc.Cols[i].Indexed = x.comps.Collection(i)
	}
	for i := range x.shards {
		enc.Postings[i] = x.shards[i].postings
	}

	if _, err := io.WriteString(w, indexMagic); err != nil {
		return 0, fmt.Errorf("blockindex: writing header: %w", err)
	}
	crc := crc32.New(crcTable)
	if err := gob.NewEncoder(io.MultiWriter(w, crc)).Encode(enc); err != nil {
		return 0, fmt.Errorf("blockindex: encoding index: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return 0, fmt.Errorf("blockindex: writing checksum: %w", err)
	}
	return x.comps.Version(), nil
}

// Decode reads an index written by EncodeTo and rebuilds it under cfg,
// which must describe the same configuration (scheme, key function, shard
// count) that produced it — the index records only the shard count, so the
// caller's storage key must carry the rest. A shard-count mismatch is an
// error: the persisted partitioning no longer matches the requested one,
// and the caller should rebuild from the corpus instead.
func Decode(r io.Reader, cfg Config) (*Index, error) {
	header := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCodecCorrupt, err)
	}
	if string(header) != indexMagic {
		if string(header[:5]) == indexMagic[:5] {
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

	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	if enc.Shards != cfg.Shards {
		return nil, fmt.Errorf("blockindex: encoded index has %d shards, configuration wants %d; rebuild from the corpus",
			enc.Shards, cfg.Shards)
	}
	if len(enc.Refs) != len(enc.Hashes) {
		return nil, fmt.Errorf("%w: %d refs but %d hashes", ErrCodecCorrupt, len(enc.Refs), len(enc.Hashes))
	}
	if len(enc.Postings) != enc.Shards {
		return nil, fmt.Errorf("%w: %d posting shards, header declares %d", ErrCodecCorrupt, len(enc.Postings), enc.Shards)
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
	for s := range enc.Postings {
		postings := enc.Postings[s]
		if postings == nil {
			postings = make(map[string][]int32)
		}
		for key, ids := range postings {
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
			x.keyCount++
		}
		x.shards[s].postings = postings
	}
	return x, nil
}
