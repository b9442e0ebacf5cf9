package blockindex

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/framing"
)

// doc builds a test document at position id with the given text.
func doc(id int, text string) corpus.Document {
	return corpus.Document{ID: id, URL: fmt.Sprintf("http://example.com/%d", id), Text: text, PersonaID: 0}
}

// namedCols builds collections keyed (by default) by their names.
func namedCols(names ...string) []*corpus.Collection {
	out := make([]*corpus.Collection, len(names))
	for i, name := range names {
		out[i] = &corpus.Collection{Name: name, NumPersonas: 1,
			Docs: []corpus.Document{doc(0, "page about "+name)}}
	}
	return out
}

// membership reads x's blocks the way production does: UpdateMembership
// over cols, the corpus x already holds, so the update inserts nothing.
func membership(t *testing.T, x *Index, cols []*corpus.Collection) ([][]DocRef, []uint64) {
	t.Helper()
	stats, refs, fps, err := x.UpdateMembership(cols)
	if err != nil || stats.DeltaDocs != 0 {
		t.Fatalf("reading membership indexed %d documents (err %v)", stats.DeltaDocs, err)
	}
	return refs, fps
}

// schemeMembership computes the reference block membership the way
// SchemeBlocker does: full candidate generation plus a fresh union-find.
func schemeMembership(scheme blocking.Scheme, keys KeyFunc, cols []*corpus.Collection) [][]DocRef {
	var refs []DocRef
	var records []blocking.Record
	for ci, col := range cols {
		for di := range col.Docs {
			records = append(records, blocking.Record{ID: len(refs), Keys: keys(col, col.Docs[di])})
			refs = append(refs, DocRef{Col: ci, Doc: di})
		}
	}
	uf := ergraph.NewUnionFind(len(refs))
	for _, p := range scheme.Candidates(records) {
		uf.Union(p.A, p.B)
	}
	comp := make(map[int]int)
	var members [][]DocRef
	for i := range refs {
		root := uf.Find(i)
		slot, ok := comp[root]
		if !ok {
			slot = len(members)
			comp[root] = slot
			members = append(members, nil)
		}
		members[slot] = append(members[slot], refs[i])
	}
	return members
}

func TestIndexMatchesSchemeAcrossBatches(t *testing.T) {
	// Three collections whose documents share tokens across collections
	// under token blocking but not under exact-key blocking.
	full := []*corpus.Collection{
		{Name: "john smith", NumPersonas: 1, Docs: []corpus.Document{
			doc(0, "a"), doc(1, "b"), doc(2, "c"), doc(3, "d"),
		}},
		{Name: "mary jones", NumPersonas: 1, Docs: []corpus.Document{
			doc(0, "e"), doc(1, "f"), doc(2, "g"),
		}},
		{Name: "j smith", NumPersonas: 1, Docs: []corpus.Document{
			doc(0, "h"), doc(1, "i"),
		}},
	}
	prefix := func(counts ...int) []*corpus.Collection {
		out := make([]*corpus.Collection, 0, len(counts))
		for i, n := range counts {
			if n < 0 {
				continue
			}
			out = append(out, &corpus.Collection{Name: full[i].Name, NumPersonas: 1, Docs: full[i].Docs[:n]})
		}
		return out
	}
	batches := [][]*corpus.Collection{
		prefix(2, -1, -1),
		prefix(3, 1, -1),
		prefix(3, 3, 1),
		prefix(4, 3, 2),
	}

	for _, scheme := range []blocking.KeyedScheme{blocking.ExactKey{}, blocking.TokenBlocking{}} {
		t.Run(fmt.Sprintf("%T", scheme), func(t *testing.T) {
			x, err := New(Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			for bi, batch := range batches {
				stats, err := x.Update(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				docs := 0
				for _, col := range batch {
					docs += len(col.Docs)
				}
				if stats.DeltaDocs != docs-seen || stats.IndexedDocs != docs {
					t.Fatalf("batch %d: stats %+v, want delta %d of %d", bi, stats, docs-seen, docs)
				}
				seen = docs

				refs, fps := membership(t, x, batch)
				want := schemeMembership(scheme, CollectionNameKey, batch)
				if !reflect.DeepEqual(refs, want) {
					t.Fatalf("batch %d: membership %v, want %v", bi, refs, want)
				}
				if len(fps) != len(refs) {
					t.Fatalf("batch %d: %d fingerprints for %d blocks", bi, len(fps), len(refs))
				}
				// Fingerprints must equal the diff-side formula.
				for i, mem := range want {
					hashes := make([]uint64, len(mem))
					for j, ref := range mem {
						d := batch[ref.Col].Docs[ref.Doc]
						hashes[j] = blocking.DocHash(batch[ref.Col].Name, ref.Doc, d.URL, d.Text, d.PersonaID)
					}
					if got := blocking.CombineIDs(hashes); got != fps[i] {
						t.Fatalf("batch %d block %d: fingerprint %x, diff formula gives %x", bi, i, fps[i], got)
					}
				}
			}
		})
	}
}

func TestIndexDirtyBlockAccounting(t *testing.T) {
	x, err := New(Config{Scheme: blocking.ExactKey{}})
	if err != nil {
		t.Fatal(err)
	}
	cols := namedCols("smith", "jones")
	stats, err := x.Update(cols)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyBlocks != 2 || stats.Blocks != 2 {
		t.Fatalf("first update stats %+v, want 2 dirty of 2", stats)
	}

	// Re-offering the same corpus is a no-op.
	stats, err = x.Update(cols)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaDocs != 0 || stats.DirtyBlocks != 0 {
		t.Fatalf("no-op update stats %+v", stats)
	}

	// Growing one collection dirties exactly its block.
	cols[1].Docs = append(cols[1].Docs, doc(1, "another jones page"))
	stats, err = x.Update(cols)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaDocs != 1 || stats.DirtyBlocks != 1 || stats.Blocks != 2 {
		t.Fatalf("delta update stats %+v, want 1 dirty of 2", stats)
	}
}

func TestIndexOutOfSync(t *testing.T) {
	x, err := New(Config{Scheme: blocking.ExactKey{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Update(namedCols("smith", "jones")); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]*corpus.Collection{
		"fewer collections": namedCols("smith"),
		"renamed":           namedCols("smith", "cohen"),
		"shrunk": {
			{Name: "smith", NumPersonas: 1, Docs: nil},
			namedCols("jones")[0],
		},
	}
	for name, cols := range cases {
		if _, err := x.Update(cols); !errors.Is(err, ErrOutOfSync) {
			t.Errorf("%s: error %v, want ErrOutOfSync", name, err)
		}
	}
}

func TestIndexCodecRoundTrip(t *testing.T) {
	cfg := Config{Scheme: blocking.TokenBlocking{}}
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := []*corpus.Collection{
		{Name: "john smith", NumPersonas: 1, Docs: []corpus.Document{doc(0, "a"), doc(1, "b")}},
		{Name: "j smith", NumPersonas: 1, Docs: []corpus.Document{doc(0, "c")}},
		{Name: "mary jones", NumPersonas: 1, Docs: []corpus.Document{doc(0, "d")}},
	}
	if _, err := x.Update(cols); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	version, err := x.EncodeTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if version != x.Version() {
		t.Fatalf("encode reported version %d, index is at %d", version, x.Version())
	}
	decoded, err := Decode(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantRefs, wantFps := membership(t, x, cols)
	gotRefs, gotFps := membership(t, decoded, cols)
	if !reflect.DeepEqual(gotRefs, wantRefs) || !reflect.DeepEqual(gotFps, wantFps) {
		t.Fatal("decoded index reports different membership than the original")
	}
	if !reflect.DeepEqual(decoded.Stats(), x.Stats()) {
		t.Fatalf("decoded stats %+v, original %+v", decoded.Stats(), x.Stats())
	}

	// The decoded index keeps indexing incrementally.
	cols[2].Docs = append(cols[2].Docs, doc(1, "e"))
	stats, err := decoded.Update(cols)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaDocs != 1 {
		t.Fatalf("post-decode delta stats %+v", stats)
	}
}

func TestIndexCodecRejectsDamage(t *testing.T) {
	cfg := Config{Scheme: blocking.ExactKey{}}
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Update(namedCols("smith", "jones")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(bytes.NewReader(flipped), cfg); !errors.Is(err, ErrCodecCorrupt) {
		t.Errorf("bit flip: error %v, want ErrCodecCorrupt", err)
	}

	truncated := good[:len(good)-3]
	if _, err := Decode(bytes.NewReader(truncated), cfg); !errors.Is(err, ErrCodecCorrupt) {
		t.Errorf("truncation: error %v, want ErrCodecCorrupt", err)
	}

	if _, err := Decode(bytes.NewReader(append(append([]byte(nil), good...), 0)), cfg); !errors.Is(err, ErrCodecCorrupt) {
		t.Errorf("a byte behind the record: error %v, want ErrCodecCorrupt", err)
	}

	// A checksum-valid record whose postings hold a key with no documents.
	empty := sealedPayload(t, encodedIndex{Postings: []map[string][]int32{{"k": {}}, nil}})
	if _, err := Decode(bytes.NewReader(empty), cfg); !errors.Is(err, ErrCodecCorrupt) {
		t.Errorf("empty posting list: error %v, want ErrCodecCorrupt", err)
	}

	// A key in two posting maps: each map would re-link its own posting.
	twice := sealedPayload(t, encodedIndex{
		Refs: []DocRef{{Col: 0, Doc: 0}, {Col: 1, Doc: 0}}, Hashes: []uint64{1, 2},
		Postings: []map[string][]int32{{"k": {0}}, {"k": {1}}}})
	if _, err := Decode(bytes.NewReader(twice), cfg); !errors.Is(err, ErrCodecCorrupt) {
		t.Errorf("key in two posting maps: error %v, want ErrCodecCorrupt", err)
	}
}

// sealedPayload frames the gob of enc as the one record EncodeTo writes.
func sealedPayload(tb testing.TB, enc encodedIndex) []byte {
	tb.Helper()
	rec, err := framing.Record(func(w io.Writer) error { return gob.NewEncoder(w).Encode(enc) })
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// FuzzDecodeIndex feeds arbitrary payloads to Decode, each sealed into a
// valid record so that the checks behind the checksum are what is
// exercised: Decode must not panic, and an index it accepts must re-encode
// and decode to the same membership.
func FuzzDecodeIndex(f *testing.F) {
	cfg := Config{Scheme: blocking.TokenBlocking{}}
	x, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := x.Update(namedCols("john smith", "jane smith", "jones")); err != nil {
		f.Fatal(err)
	}
	var real bytes.Buffer
	if _, err := x.EncodeTo(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes()[framing.HeaderBytes:])
	f.Add(sealedPayload(f, encodedIndex{Postings: []map[string][]int32{{"k": {}}, nil}})[framing.HeaderBytes:])

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := framing.Record(func(w io.Writer) error { _, err := w.Write(payload); return err })
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(rec), cfg)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := got.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&buf, cfg)
		if err != nil {
			t.Fatalf("an accepted index re-encodes to one Decode refuses: %v", err)
		}
		wantRefs, wantFps := got.comps.Membership()
		gotRefs, gotFps := again.comps.Membership()
		if !reflect.DeepEqual(gotRefs, wantRefs) || !reflect.DeepEqual(gotFps, wantFps) {
			t.Fatalf("membership changed across a re-encode:\n%v %v\n%v %v", wantRefs, wantFps, gotRefs, gotFps)
		}
	})
}
