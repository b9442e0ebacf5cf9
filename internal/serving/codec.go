package serving

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/framing"
)

// commitHeaderBytes is the fixed head of a commit record's payload: the
// committed index's epoch and store version, 8 bytes each. A commit that
// changed nothing else is this header alone.
const commitHeaderBytes = 16

// ErrCodecCorrupt reports structural damage to a log's base. Callers treat
// it as "no usable snapshot": correctness never depends on the encoded form
// — the index rebuilds on the next committed resolve — only the restart
// head-start does. Damage to a commit record is not an error: DecodeLog
// serves the commits before it.
var ErrCodecCorrupt = errors.New("serving: encoded serving index is corrupt")

// encodedIndex is the base record's gob payload: the per-block primary
// state plus the snapshot geometry its refs point into. The collection →
// blocks table, the document rows and the token postings are derived
// state, reassembled on decode.
type encodedIndex struct {
	Epoch        uint64
	StoreVersion uint64
	Knobs        string
	ColNames     []string
	ColDocs      []int
	Blocks       []encodedBlock
}

type encodedBlock struct {
	FP       uint64
	Name     string
	Tokens   []string
	Clusters []encodedCluster
}

type encodedCluster struct {
	Label  int
	Source string
	Score  *eval.Result
	Refs   []DocRef
	URLs   []string
}

// encodedChange is the gob part of a commit record's payload, behind the
// fixed header and present only when the commit changed more than the
// epoch: what became of the collections and blocks since the record
// before it.
type encodedChange struct {
	// Cols are the collections that are new (Index is the next unused one)
	// or whose document count grew.
	Cols []encodedCol
	// Removed are the fingerprints of the blocks the commit dropped, Added
	// the blocks it materialized, in the base's block encoding.
	Removed []uint64
	Added   []encodedBlock
}

type encodedCol struct {
	Index int
	Name  string
	Docs  int
}

// encodeBlock lists each cluster's refs and URLs in ref order: the block's
// refs grouped by label.
func encodeBlock(st *blockState) encodedBlock {
	eb := encodedBlock{FP: st.fp, Name: st.name, Tokens: st.tokens,
		Clusters: make([]encodedCluster, len(st.clusters))}
	for label, c := range st.clusters {
		eb.Clusters[label] = encodedCluster{Label: label, Source: c.Source, Score: c.Score,
			Refs: make([]DocRef, 0, len(c.Members)), URLs: make([]string, len(c.Members))}
		for k, m := range c.Members {
			eb.Clusters[label].URLs[k] = m.URL
		}
	}
	for i, ref := range st.refs {
		ec := &eb.Clusters[st.res.Labels[i]]
		ec.Refs = append(ec.Refs, ref)
	}
	return eb
}

// decodeBlock rebuilds one block's serving state, checking every member
// ref against the collections the block was committed over and that the
// cluster labels ascend strictly. It also recovers the block's refs and
// resolution: a run lists a block's documents ascending by (Col, Doc), so
// the members sorted back into that order give the resolution's labels,
// which must then be dense and numbered in order of first appearance, as
// every clustering numbers them.
func decodeBlock(eb encodedBlock, colNames []string, colDocs []int) (*blockState, error) {
	st := &blockState{fp: eb.FP, name: eb.Name, tokens: eb.Tokens, res: &core.Resolution{}}
	type doc struct {
		ref   DocRef
		label int
		url   string
	}
	var docs []doc
	for j, ec := range eb.Clusters {
		if j > 0 && ec.Label <= eb.Clusters[j-1].Label {
			return nil, fmt.Errorf("block %016x: cluster label %d follows %d", eb.FP, ec.Label, eb.Clusters[j-1].Label)
		}
		if len(ec.Refs) == 0 || len(ec.Refs) != len(ec.URLs) {
			return nil, fmt.Errorf("cluster %s has %d refs and %d urls",
				ClusterID(eb.FP, ec.Label), len(ec.Refs), len(ec.URLs))
		}
		for k, ref := range ec.Refs {
			if ref.Col < 0 || ref.Col >= len(colNames) {
				return nil, fmt.Errorf("member references collection %d of %d", ref.Col, len(colNames))
			}
			if ref.Doc < 0 || ref.Doc >= colDocs[ref.Col] {
				return nil, fmt.Errorf("member references doc %d beyond collection %q's %d docs",
					ref.Doc, colNames[ref.Col], colDocs[ref.Col])
			}
			docs = append(docs, doc{ref, ec.Label, ec.URLs[k]})
		}
		st.res.Source, st.score = ec.Source, ec.Score
	}
	slices.SortFunc(docs, func(a, b doc) int { return cmp.Or(a.ref.Col-b.ref.Col, a.ref.Doc-b.ref.Doc) })
	st.refs = make([]DocRef, len(docs))
	st.res.Labels = make([]int, len(docs))
	next := 0 // the label a document of a new cluster must have
	for i, d := range docs {
		if d.label < 0 || d.label > next || i > 0 && d.ref == docs[i-1].ref {
			return nil, fmt.Errorf("block %016x: document %v has label %d, next new label %d, or is listed twice", eb.FP, d.ref, d.label, next)
		}
		next = max(next, d.label+1)
		st.refs[i], st.res.Labels[i] = d.ref, d.label
	}
	st.fill(func(i int) Member {
		return Member{Collection: colNames[docs[i].ref.Col], Pos: docs[i].ref.Doc, URL: docs[i].url}
	})
	return st, nil
}

// gobRecord frames prefix followed by the gob encoding of v as one record.
func gobRecord(prefix []byte, v any) ([]byte, error) {
	return framing.Record(func(w io.Writer) error {
		if _, err := w.Write(prefix); err != nil {
			return err
		}
		return gob.NewEncoder(w).Encode(v)
	})
}

// EncodeTo writes the whole index as a log of one base record.
func (x *Index) EncodeTo(w io.Writer) error {
	enc := encodedIndex{
		Epoch:        x.epoch,
		StoreVersion: x.storeVersion,
		Knobs:        x.knobs,
		ColNames:     x.colNames,
		ColDocs:      x.colDocs,
		Blocks:       make([]encodedBlock, len(x.order)),
	}
	for i, st := range x.order {
		enc.Blocks[i] = encodeBlock(st)
	}
	base, err := gobRecord(nil, enc)
	if err != nil {
		return fmt.Errorf("serving: encoding index: %w", err)
	}
	if _, err := w.Write(base); err != nil {
		return fmt.Errorf("serving: writing index: %w", err)
	}
	return nil
}

// Manifest is what an encoded log — a base and the commit records behind
// it — holds of the index it decodes to, without holding the index: the
// configuration, the snapshot geometry, the block fingerprints and which
// of those blocks are scored, which is what the next commit is diffed
// against.
type Manifest struct {
	knobs    string
	colNames []string
	colDocs  []int
	blocks   map[uint64]bool // fingerprint -> scored
}

// Manifest describes a log that decodes to x.
func (x *Index) Manifest() *Manifest {
	m := &Manifest{knobs: x.knobs, colNames: x.colNames, colDocs: x.colDocs,
		blocks: make(map[uint64]bool, len(x.order))}
	for _, st := range x.order {
		m.blocks[st.fp] = st.score != nil
	}
	return m
}

// EncodeCommit returns the framed record that, appended to a log holding
// held, makes the log decode to x: x's epoch and store version, the
// collections that grew or are new, the fingerprints of the blocks gone
// and the blocks that are new. A block whose fingerprint held already has,
// scored in both or in neither, is under one configuration the same block;
// one whose score came or went is sent as gone and new again. ok is false
// when x does not extend held — another configuration, or collections that
// are not held's with documents appended and collections added — and then
// only a new base (EncodeTo) can hold x.
func (x *Index) EncodeCommit(held *Manifest) (rec []byte, ok bool) {
	if x.knobs != held.knobs || len(x.colNames) < len(held.colNames) {
		return nil, false
	}
	var ch encodedChange
	for i, name := range x.colNames {
		if i < len(held.colNames) {
			if name != held.colNames[i] || x.colDocs[i] < held.colDocs[i] {
				return nil, false
			}
			if x.colDocs[i] == held.colDocs[i] {
				continue
			}
		}
		ch.Cols = append(ch.Cols, encodedCol{Index: i, Name: name, Docs: x.colDocs[i]})
	}
	for fp, scored := range held.blocks {
		if st, kept := x.blocks[fp]; !kept || (st.score != nil) != scored {
			ch.Removed = append(ch.Removed, fp)
		}
	}
	sort.Slice(ch.Removed, func(i, j int) bool { return ch.Removed[i] < ch.Removed[j] })
	for _, st := range x.order {
		if scored, had := held.blocks[st.fp]; !had || (st.score != nil) != scored {
			ch.Added = append(ch.Added, encodeBlock(st))
		}
	}

	header := make([]byte, commitHeaderBytes)
	binary.LittleEndian.PutUint64(header[0:8], x.epoch)
	binary.LittleEndian.PutUint64(header[8:16], x.storeVersion)
	if len(ch.Cols)+len(ch.Removed)+len(ch.Added) == 0 {
		rec = append(make([]byte, framing.HeaderBytes), header...)
		framing.Seal(rec)
		return rec, true
	}
	rec, err := gobRecord(header, ch)
	return rec, err == nil
}

// Decode reads an index written by EncodeTo, with any commit records
// appended since, and reassembles its derived lookup state. The decoded
// index is immutable and lookup-ready, exactly as if freshly built.
func Decode(r io.Reader) (*Index, error) {
	x, _, err := DecodeLog(r)
	return x, err
}

// DecodeLog is Decode that also reports how the log ended. A missing or
// damaged base is an error. A commit record that is cut short, too
// long, fails its checksum or does not apply to the state before it ends
// the replay instead: the index returned is the one the records before it
// committed — an earlier acknowledged resolution, never a partly applied
// record — and tail says why the rest of the log was ignored. tail is nil
// when every record applied.
func DecodeLog(r io.Reader) (x *Index, tail error, err error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading payload: %v", ErrCodecCorrupt, err)
	}
	recs := framing.NewReader(bytes.NewReader(body), 0, int64(len(body)), framing.MaxPayloadBytes)

	payload, err := recs.Next()
	if err == io.EOF {
		err = errors.New("no record")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: base: %v", ErrCodecCorrupt, err)
	}
	var enc encodedIndex
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&enc); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}
	if len(enc.ColNames) != len(enc.ColDocs) {
		return nil, nil, fmt.Errorf("%w: %d collection names but %d doc counts", ErrCodecCorrupt, len(enc.ColNames), len(enc.ColDocs))
	}
	// The base is the first change to an empty log: every collection new,
	// every block added, through the checks a commit record gets.
	base := encodedChange{Cols: make([]encodedCol, len(enc.ColNames)), Added: enc.Blocks}
	for i, name := range enc.ColNames {
		base.Cols[i] = encodedCol{Index: i, Name: name, Docs: enc.ColDocs[i]}
	}
	log := replay{names: make(map[string]bool, len(enc.ColNames)), live: make(map[uint64]*blockState, len(enc.Blocks))}
	if err := log.change(enc.Epoch, enc.StoreVersion, base); err != nil {
		return nil, nil, fmt.Errorf("%w: base: %v", ErrCodecCorrupt, err)
	}

	for tail == nil {
		offset := recs.Offset()
		payload, err := recs.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = log.apply(payload)
		}
		if err != nil {
			tail = fmt.Errorf("commit record at offset %d of %d: %w", offset, len(body), err)
		}
	}
	// Blocks keep the order they were committed in, minus the ones a later
	// record removed (or removed and committed again).
	states := log.states[:0]
	for _, st := range log.states {
		if log.live[st.fp] == st {
			states = append(states, st)
		}
	}
	return assemble(nil, log.epoch, log.storeVersion, enc.Knobs, log.colNames, log.colDocs, states), tail, nil
}

// replay is the state a log's records are applied to, in order.
type replay struct {
	epoch, storeVersion uint64
	colNames            []string
	colDocs             []int
	names               map[string]bool        // colNames as a set
	states              []*blockState          // every block committed, in order
	live                map[uint64]*blockState // the ones not removed since
}

// apply applies one commit record's payload, or — when the record does not
// describe a change to this state — returns an error having changed
// nothing.
func (l *replay) apply(payload []byte) error {
	if len(payload) < commitHeaderBytes {
		return fmt.Errorf("payload of %d bytes is shorter than its header", len(payload))
	}
	var ch encodedChange
	if len(payload) > commitHeaderBytes {
		if err := gob.NewDecoder(bytes.NewReader(payload[commitHeaderBytes:])).Decode(&ch); err != nil {
			return err
		}
	}
	return l.change(binary.LittleEndian.Uint64(payload[0:8]), binary.LittleEndian.Uint64(payload[8:16]), ch)
}

// change applies one change — a commit record's, or the base's to the
// empty log — committed at epoch and storeVersion, or returns an error
// having changed nothing. A collection is new only at the next unused
// index and under a name no collection has; an existing one keeps its name
// and never shrinks.
func (l *replay) change(epoch, storeVersion uint64, ch encodedChange) error {
	// The collection tables are shared with nothing yet, but a record that
	// fails below must leave them as they were: grow copies.
	colNames, colDocs := l.colNames, l.colDocs
	if len(ch.Cols) > 0 {
		colNames = append([]string(nil), colNames...)
		colDocs = append([]int(nil), colDocs...)
	}
	newNames := make(map[string]bool)
	for _, c := range ch.Cols {
		switch {
		case c.Index == len(colNames) && c.Docs >= 0 && !l.names[c.Name] && !newNames[c.Name]:
			newNames[c.Name] = true
			colNames = append(colNames, c.Name)
			colDocs = append(colDocs, c.Docs)
		case c.Index >= 0 && c.Index < len(colNames) && c.Name == colNames[c.Index] && c.Docs >= colDocs[c.Index]:
			colDocs[c.Index] = c.Docs
		default:
			return fmt.Errorf("collection %d %q with %d docs does not extend the %d collections before it",
				c.Index, c.Name, c.Docs, len(colNames))
		}
	}
	gone := make(map[uint64]bool, len(ch.Removed))
	for _, fp := range ch.Removed {
		if _, ok := l.live[fp]; !ok || gone[fp] {
			return fmt.Errorf("removes block %016x, which is not in the index", fp)
		}
		gone[fp] = true
	}
	added := make([]*blockState, len(ch.Added))
	adding := make(map[uint64]bool, len(ch.Added))
	for i, eb := range ch.Added {
		if _, ok := l.live[eb.FP]; adding[eb.FP] || (ok && !gone[eb.FP]) {
			return fmt.Errorf("adds block %016x, which is already in the index", eb.FP)
		}
		adding[eb.FP] = true
		st, err := decodeBlock(eb, colNames, colDocs)
		if err != nil {
			return err
		}
		added[i] = st
	}

	l.epoch, l.storeVersion = epoch, storeVersion
	l.colNames, l.colDocs = colNames, colDocs
	for name := range newNames {
		l.names[name] = true
	}
	for _, fp := range ch.Removed {
		delete(l.live, fp)
	}
	for _, st := range added {
		l.states = append(l.states, st)
		l.live[st.fp] = st
	}
	return nil
}
