package ann

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/blockindex"
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
func membership(t *testing.T, x *CandidateIndex, cols []*corpus.Collection) ([][]DocRef, []uint64) {
	t.Helper()
	stats, refs, fps, err := x.UpdateMembership(cols)
	if err != nil || stats.DeltaDocs != 0 {
		t.Fatalf("reading membership inserted %d documents (err %v)", stats.DeltaDocs, err)
	}
	return refs, fps
}

// testCanopy is the approximable canopy the tests index under.
func testCanopy() blocking.Canopy { return blocking.Canopy{Loose: 0.4, Tight: 0.8} }

// nameCorpus is a small mixed corpus: name collections that overlap
// across collections token-wise but not exactly.
func nameCorpus() []*corpus.Collection {
	return []*corpus.Collection{
		{Name: "john smith", NumPersonas: 1, Docs: []corpus.Document{
			doc(0, "a"), doc(1, "b"), doc(2, "c"), doc(3, "d"),
		}},
		{Name: "mary jones", NumPersonas: 1, Docs: []corpus.Document{
			doc(0, "e"), doc(1, "f"), doc(2, "g"),
		}},
		{Name: "john p smith", NumPersonas: 1, Docs: []corpus.Document{
			doc(0, "h"), doc(1, "i"),
		}},
		{Name: "walter cohen", NumPersonas: 1, Docs: []corpus.Document{
			doc(0, "j"),
		}},
	}
}

// schemeMembership computes the reference block membership the way
// SchemeBlocker does: full candidate generation plus a fresh union-find.
func schemeMembership(scheme blocking.Scheme, keys blockindex.KeyFunc, cols []*corpus.Collection) [][]DocRef {
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

func TestDeterministicRebuild(t *testing.T) {
	build := func() *CandidateIndex {
		x, err := New(Config{Scheme: testCanopy()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Update(nameCorpus()); err != nil {
			t.Fatal(err)
		}
		return x
	}
	a, b := build(), build()
	aRefs, aFps := membership(t, a, nameCorpus())
	bRefs, bFps := membership(t, b, nameCorpus())
	if !reflect.DeepEqual(aRefs, bRefs) || !reflect.DeepEqual(aFps, bFps) {
		t.Fatal("two builds of the same corpus disagree on membership")
	}
	if a.entry != b.entry || a.maxLevel != b.maxLevel || a.vocab.Len() != b.vocab.Len() {
		t.Fatalf("two builds of the same corpus disagree on the graph's entry (%d vs %d), top layer (%d vs %d) or vocabulary (%d vs %d terms)",
			a.entry, b.entry, a.maxLevel, b.maxLevel, a.vocab.Len(), b.vocab.Len())
	}
	if !reflect.DeepEqual(a.edges, b.edges) {
		t.Fatal("two builds of the same corpus logged different candidate edges")
	}
}

func TestPrefixBatchesMatchOneShot(t *testing.T) {
	full := nameCorpus()
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
	// Batches that extend the flattened (collection, position) order: each
	// grows only the tail collection or appends new ones — the splits the
	// package doc promises reproduce the one-shot build bit for bit.
	batches := [][]*corpus.Collection{
		prefix(2, -1, -1),
		prefix(4, 2, -1),
		prefix(4, 3, 1),
		prefix(4, 3, 2, 1),
	}

	incremental, err := New(Config{Scheme: testCanopy()})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for bi, batch := range batches {
		stats, err := incremental.Update(batch)
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

		oneShot, err := New(Config{Scheme: testCanopy()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := oneShot.Update(batch); err != nil {
			t.Fatalf("batch %d one-shot: %v", bi, err)
		}
		gotRefs, gotFps := incremental.comps.Membership()
		wantRefs, wantFps := oneShot.comps.Membership()
		if !reflect.DeepEqual(gotRefs, wantRefs) || !reflect.DeepEqual(gotFps, wantFps) {
			t.Fatalf("batch %d: incremental membership %v, one-shot %v", bi, gotRefs, wantRefs)
		}
		if !reflect.DeepEqual(incremental.edges, oneShot.edges) {
			t.Fatalf("batch %d: incremental edges %v, one-shot %v", bi, incremental.edges, oneShot.edges)
		}
	}
}

// TestCanopyBlocksCoverExactBlocks: cosine over binary token vectors
// bounds Jaccard from above, and at this corpus size the beam sees every
// node — so every exact canopy block must land inside a single ANN block
// (the approximation can coarsen blocks here, never split them).
func TestCanopyBlocksCoverExactBlocks(t *testing.T) {
	cols := nameCorpus()
	x, err := New(Config{Scheme: testCanopy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Update(cols); err != nil {
		t.Fatal(err)
	}
	annRefs, _ := membership(t, x, cols)
	annBlock := make(map[DocRef]int)
	for bi, block := range annRefs {
		for _, ref := range block {
			annBlock[ref] = bi
		}
	}
	for _, block := range schemeMembership(testCanopy(), blockindex.CollectionNameKey, cols) {
		for _, ref := range block[1:] {
			if annBlock[ref] != annBlock[block[0]] {
				t.Fatalf("exact block %v split across ANN blocks %v", block, annRefs)
			}
		}
	}
	// "walter cohen" shares no token with anyone and must stay alone.
	if got := len(annRefs[len(annRefs)-1]); got != 1 {
		t.Fatalf("ANN membership %v: expected a singleton cohen block", annRefs)
	}
}

func TestDirtyBlockAccounting(t *testing.T) {
	x, err := New(Config{Scheme: testCanopy()})
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

func TestOutOfSync(t *testing.T) {
	x, err := New(Config{Scheme: testCanopy()})
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
		if _, err := x.Update(cols); !errors.Is(err, blockindex.ErrOutOfSync) {
			t.Errorf("%s: error %v, want ErrOutOfSync", name, err)
		}
	}
}

// TestMembershipOfLeavesIndexUntouched pins the contract IndexBlocker
// surfaces to its caller: an UpdateMembership over a corpus older than the
// index is ErrOutOfSync, and leaves the index's version and membership as
// they were.
func TestMembershipOfLeavesIndexUntouched(t *testing.T) {
	x, err := New(Config{Scheme: testCanopy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Update(nameCorpus()); err != nil {
		t.Fatal(err)
	}
	before := x.Version()
	// Printed, not held: the returned slices are shared with the cache.
	printed := fmt.Sprint(membership(t, x, nameCorpus()))

	old := nameCorpus()[:2]
	if _, refs, fps, err := x.UpdateMembership(old); !errors.Is(err, blockindex.ErrOutOfSync) || refs != nil || fps != nil {
		t.Fatalf("UpdateMembership of an older corpus = %v, %v, %v; want ErrOutOfSync and nothing else", refs, fps, err)
	}
	if x.Version() != before {
		t.Fatalf("a rejected UpdateMembership moved the index from %d to %d", before, x.Version())
	}
	if after := fmt.Sprint(membership(t, x, nameCorpus())); after != printed {
		t.Fatalf("a rejected UpdateMembership changed the membership from %s to %s", printed, after)
	}
}

func TestNewValidation(t *testing.T) {
	cases := map[string]Config{
		"nil scheme":     {},
		"M of one":       {Scheme: testCanopy(), M: 1},
		"negative M":     {Scheme: testCanopy(), M: -3},
		"negative ef":    {Scheme: testCanopy(), EfSearch: -1},
		"invalid canopy": {Scheme: blocking.Canopy{Loose: 0.8, Tight: 0.2}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config was accepted", name)
		}
	}
}

func TestLevelFor(t *testing.T) {
	mL := 1 / 2.4849 // 1/ln(12)
	if a, b := levelFor(12345, mL), levelFor(12345, mL); a != b {
		t.Fatalf("same hash drew levels %d and %d", a, b)
	}
	zeros := 0
	for h := uint64(0); h < 1000; h++ {
		l := levelFor(h*0x9e3779b97f4a7c15, mL)
		if l < 0 || l > maxGraphLevel {
			t.Fatalf("hash %d drew level %d", h, l)
		}
		if l == 0 {
			zeros++
		}
	}
	// The geometric draw keeps roughly (1 - 1/M) of nodes on layer 0.
	if zeros < 800 {
		t.Fatalf("only %d of 1000 nodes on layer 0", zeros)
	}
}

// TestCodecRoundTrip pins EncodeTo, whose bytes nothing decodes: two
// indexes fed the same batches encode byte for byte the same, the bytes are
// exactly one framing record, and the returned version is Version().
func TestCodecRoundTrip(t *testing.T) {
	cfg := Config{Scheme: testCanopy(), M: 8, EfSearch: 24}
	full := nameCorpus()
	batches := [][]*corpus.Collection{full[:2], full}
	encode := func() []byte {
		x, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			if _, err := x.Update(batch); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		version, err := x.EncodeTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if version != x.Version() {
			t.Fatalf("encode reported version %d, index is at %d", version, x.Version())
		}
		return buf.Bytes()
	}

	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two indexes fed the same batches encode differently")
	}
	payload, err := framing.ReadOne(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("encoding is not one framing record: %v", err)
	}
	if len(payload)+framing.HeaderBytes != len(a) {
		t.Fatalf("record carries %d payload bytes of %d", len(payload), len(a))
	}
}
