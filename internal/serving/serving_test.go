package serving

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/framing"
)

// fixture builds two collections and one resolved block per collection:
// smith's six docs split into clusters {0,1,2}/{3,4}/{5}, jones's four
// docs into {0,1}/{2,3}.
func fixture() ([]*corpus.Collection, []BlockResolution) {
	cols := []*corpus.Collection{
		{Name: "smith", Docs: make([]corpus.Document, 6)},
		{Name: "jones", Docs: make([]corpus.Document, 4)},
	}
	for _, col := range cols {
		for i := range col.Docs {
			col.Docs[i].ID = i
			col.Docs[i].URL = fmt.Sprintf("http://example.com/%s/%d", col.Name, i)
		}
	}
	blocks := []BlockResolution{
		{
			Fingerprint: 0xAAAA,
			Name:        "smith",
			Members:     []DocRef{{Col: 0, Doc: 0}, {Col: 0, Doc: 1}, {Col: 0, Doc: 2}, {Col: 0, Doc: 3}, {Col: 0, Doc: 4}, {Col: 0, Doc: 5}},
			Resolution:  &core.Resolution{Labels: []int{0, 0, 0, 1, 1, 2}, Source: "test"},
			Score:       &eval.Result{Fp: 0.9, F: 0.8, Rand: 0.85},
		},
		{
			Fingerprint: 0xBBBB,
			Name:        "jones",
			Members:     []DocRef{{Col: 1, Doc: 0}, {Col: 1, Doc: 1}, {Col: 1, Doc: 2}, {Col: 1, Doc: 3}},
			Resolution:  &core.Resolution{Labels: []int{0, 0, 1, 1}, Source: "test"},
		},
	}
	return cols, blocks
}

func TestBuildLookups(t *testing.T) {
	cols, blocks := fixture()
	x := Build(nil, 1, 10, "knobs", cols, blocks)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if x.Epoch() != 1 || x.StoreVersion() != 10 || x.Knobs() != "knobs" {
		t.Fatalf("identity = (%d, %d, %q)", x.Epoch(), x.StoreVersion(), x.Knobs())
	}
	if x.Clusters() != 5 {
		t.Fatalf("clusters = %d, want 5", x.Clusters())
	}
	if x.Docs() != 10 {
		t.Fatalf("docs = %d, want 10", x.Docs())
	}
	if len(x.order) != 2 {
		t.Fatalf("blocks = %d, want 2", len(x.order))
	}

	c := x.DocEntity("smith", 4)
	if c == nil {
		t.Fatal("DocEntity(smith, 4) = nil")
	}
	if c.ID != ClusterID(0xAAAA, 1) {
		t.Fatalf("cluster ID = %q, want %q", c.ID, ClusterID(0xAAAA, 1))
	}
	if len(c.Members) != 2 || c.Members[0].Pos != 3 || c.Members[1].Pos != 4 {
		t.Fatalf("members = %+v", c.Members)
	}
	if c.Members[0].Collection != "smith" || c.Members[0].URL == "" {
		t.Fatalf("member = %+v", c.Members[0])
	}
	if c.Score == nil || c.Score.F != 0.8 {
		t.Fatalf("score = %+v", c.Score)
	}
	if got := x.Entity(c.ID); got != c {
		t.Fatalf("Entity(%q) = %p, want %p", c.ID, got, c)
	}

	// Misses: unknown entity, unknown collection, position beyond the
	// committed snapshot (the staleness contract's safe answer is nil).
	if x.Entity("nope") != nil {
		t.Fatal("Entity(nope) != nil")
	}
	if x.DocEntity("nope", 0) != nil {
		t.Fatal("DocEntity on unknown collection != nil")
	}
	if x.DocEntity("smith", 6) != nil {
		t.Fatal("DocEntity beyond snapshot != nil")
	}
	if x.DocEntity("smith", -1) != nil {
		t.Fatal("DocEntity negative pos != nil")
	}
}

func TestSearch(t *testing.T) {
	cols, blocks := fixture()
	x := Build(nil, 1, 10, "knobs", cols, blocks)

	hits := x.Search("Smith", 0)
	if len(hits) != 3 {
		t.Fatalf("search smith: %d hits, want 3", len(hits))
	}
	// Equal match counts rank bigger clusters first.
	if len(hits[0].Cluster.Members) != 3 || len(hits[1].Cluster.Members) != 2 || len(hits[2].Cluster.Members) != 1 {
		t.Fatalf("hit sizes = %d, %d, %d", len(hits[0].Cluster.Members), len(hits[1].Cluster.Members), len(hits[2].Cluster.Members))
	}
	for _, h := range hits {
		if h.Cluster.Block != "smith" || h.Matched != 1 {
			t.Fatalf("hit = %+v", h)
		}
	}
	if got := x.Search("smith", 2); len(got) != 2 {
		t.Fatalf("limit 2 returned %d", len(got))
	}
	if got := x.Search("", 0); got != nil {
		t.Fatalf("empty query returned %d hits", len(got))
	}
	if got := x.Search("unseen name", 0); len(got) != 0 {
		t.Fatalf("unknown tokens returned %d hits", len(got))
	}
}

func TestIncrementalReuse(t *testing.T) {
	cols, blocks := fixture()
	prev := Build(nil, 1, 10, "knobs", cols, blocks)
	smith := prev.DocEntity("smith", 0)

	// Jones grows a doc and re-resolves under a new fingerprint; smith's
	// block is untouched.
	cols[1].Docs = append(cols[1].Docs, corpus.Document{ID: 4, URL: "http://example.com/jones/4"})
	next := blocks
	next[1] = BlockResolution{
		Fingerprint: 0xCCCC,
		Name:        "jones",
		Members:     []DocRef{{Col: 1, Doc: 0}, {Col: 1, Doc: 1}, {Col: 1, Doc: 2}, {Col: 1, Doc: 3}, {Col: 1, Doc: 4}},
		Resolution:  &core.Resolution{Labels: []int{0, 0, 1, 1, 1}, Source: "test"},
	}
	x := Build(prev, 2, 11, "knobs", cols, next)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	// The clean block's clusters are reused verbatim: same pointers, same
	// stable IDs.
	if got := x.DocEntity("smith", 0); got != smith {
		t.Fatalf("clean block not reused: %p vs %p", got, smith)
	}
	if got := x.DocEntity("jones", 4); got == nil || got.ID != ClusterID(0xCCCC, 1) {
		t.Fatalf("dirty block cluster = %+v", got)
	}
	if prev.DocEntity("jones", 4) != nil {
		t.Fatal("previous index mutated by rebuild")
	}

	// A different configuration must not donate materializations even when
	// fingerprints match.
	y := Build(prev, 2, 11, "other-knobs", cols, next)
	if got := y.DocEntity("smith", 0); got == smith {
		t.Fatal("cross-knobs reuse")
	}
}

// TestBuildReuseMatchesFresh pins Build's reuse path against a build from
// nothing: over rounds in which a random subset of the blocks grows — and
// so is resolved again under a new fingerprint — the index rebuilt from
// the previous one and the index built from scratch out of the same run
// give the same answers (Validate, every document's and every cluster's
// lookup, every block name's search) and encode to the same bytes.
func TestBuildReuseMatchesFresh(t *testing.T) {
	m := newLogModel(7)
	for i := 0; i < 5; i++ {
		m.addCollection()
	}
	var prev *Index
	reusedBlocks := 0
	for round := 1; round <= 40; round++ {
		for ci := range m.cols {
			if m.rng.Intn(3) == 0 {
				m.grow(ci, 1+m.rng.Intn(2))
			}
		}
		m.epoch++
		m.version++
		blocks := m.run()
		reused := Build(prev, m.epoch, m.version, m.knobs, m.cols, blocks)
		fresh := Build(nil, m.epoch, m.version, m.knobs, m.cols, blocks)
		if got, want := answers(t, reused, m.cols), answers(t, fresh, m.cols); got != want {
			t.Fatalf("round %d: the reused build answers\n%s\nthe fresh build\n%s", round, got, want)
		}
		var got, want bytes.Buffer
		if err := reused.EncodeTo(&got); err != nil {
			t.Fatal(err)
		}
		if err := fresh.EncodeTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: the reused build encodes to %d bytes that differ from the fresh build's %d", round, got.Len(), want.Len())
		}
		for _, br := range blocks {
			if st := reused.blocks[br.Fingerprint]; prev != nil && st == prev.blocks[br.Fingerprint] {
				reusedBlocks++
			}
		}
		prev = reused
	}
	if reusedBlocks == 0 {
		t.Fatal("no round reused a clean block; the comparison is vacuous")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cols, blocks := fixture()
	x := Build(nil, 3, 42, "knobs", cols, blocks)

	var buf bytes.Buffer
	if err := x.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := y.Validate(); err != nil {
		t.Fatal(err)
	}
	if y.Epoch() != 3 || y.StoreVersion() != 42 || y.Knobs() != "knobs" {
		t.Fatalf("identity = (%d, %d, %q)", y.Epoch(), y.StoreVersion(), y.Knobs())
	}
	if y.Clusters() != x.Clusters() || y.Docs() != x.Docs() || len(y.order) != len(x.order) {
		t.Fatalf("shape = (%d, %d, %d), want (%d, %d, %d)",
			y.Clusters(), y.Docs(), len(y.order), x.Clusters(), x.Docs(), len(x.order))
	}
	want := x.DocEntity("smith", 4)
	got := y.DocEntity("smith", 4)
	if got == nil || got.ID != want.ID || len(got.Members) != len(want.Members) {
		t.Fatalf("decoded lookup = %+v, want %+v", got, want)
	}
	if got.Members[1].URL != want.Members[1].URL {
		t.Fatalf("URL = %q, want %q", got.Members[1].URL, want.Members[1].URL)
	}
	if got.Score == nil || got.Score.F != 0.8 {
		t.Fatalf("score = %+v", got.Score)
	}
	if len(y.Search("jones", 0)) != len(x.Search("jones", 0)) {
		t.Fatal("decoded search differs")
	}
}

func TestCodecRejectsDamage(t *testing.T) {
	cols, blocks := fixture()
	x := Build(nil, 1, 10, "knobs", cols, blocks)
	var buf bytes.Buffer
	if err := x.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(bytes.NewReader(flipped)); !errors.Is(err, ErrCodecCorrupt) {
		t.Fatalf("bit flip: %v", err)
	}

	if _, err := Decode(bytes.NewReader(raw[:len(raw)-3])); !errors.Is(err, ErrCodecCorrupt) {
		t.Fatalf("truncation: %v", err)
	}

	for _, bad := range []string{"", "garbage!"} {
		if _, err := Decode(bytes.NewReader([]byte(bad))); !errors.Is(err, ErrCodecCorrupt) {
			t.Fatalf("no base in %q: %v", bad, err)
		}
	}

	// Damage behind the base is not an error: whatever is wrong with a
	// commit record — cut short, checksum-broken, or well-formed but not a
	// change to the state before it — the replay ends there and the index
	// the records before it committed is served, whole.
	grown := append([]BlockResolution(nil), blocks...)
	grown[1].Fingerprint = 0xCCCC
	y := Build(x, 2, 11, "knobs", cols, grown)
	good, ok := y.EncodeCommit(x.Manifest())
	if !ok {
		t.Fatal("EncodeCommit refused an extension")
	}
	header := make([]byte, commitHeaderBytes)
	header[0] = 9 // epoch 9: a record that applied would show
	record := func(ch encodedChange) []byte {
		rec, err := gobRecord(header, ch)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	jones := encodeBlock(y.blocks[0xCCCC])
	flippedRec := append([]byte(nil), good...)
	flippedRec[len(flippedRec)-2] ^= 0x01
	short := append(make([]byte, framing.HeaderBytes), 1, 2, 3)
	framing.Seal(short)
	for _, tc := range []struct {
		name string
		rec  []byte
		why  string // what the reported tail must say
	}{
		{"bit flip in a record", flippedRec, "checksum"},
		// With a record behind them these two read as one record whose
		// checksum fails; cut short at the end of the log they are torn
		// (TestLogDecodesToLiveIndex cuts there).
		{"record cut short", good[:len(good)-1], "checksum"},
		{"record frame cut short", good[:5], "checksum"},
		{"payload shorter than its header", short, "shorter than its header"},
		{"gob garbage behind the header", func() []byte {
			rec := append(make([]byte, framing.HeaderBytes+commitHeaderBytes), 0xFF, 0xFE, 0xFD)
			framing.Seal(rec)
			return rec
		}(), "EOF"},
		{"removes a block the index does not have", record(encodedChange{Removed: []uint64{0xDEAD}}), "removes block"},
		{"removes a block twice", record(encodedChange{Removed: []uint64{0xAAAA, 0xAAAA}}), "removes block"},
		{"adds a block the index already has", record(encodedChange{Added: []encodedBlock{encodeBlock(x.blocks[0xAAAA])}}), "adds block"},
		{"adds a block twice", func() []byte {
			eb := jones
			eb.FP = 0xDDDD
			return record(encodedChange{Removed: []uint64{0xCCCC}, Added: []encodedBlock{eb, eb}})
		}(), "adds block 000000000000dddd"},
		{"shrinks a collection", record(encodedChange{Cols: []encodedCol{{Index: 0, Name: "smith", Docs: 2}}}), "does not extend"},
		{"renames a collection", record(encodedChange{Cols: []encodedCol{{Index: 0, Name: "smyth", Docs: 9}}}), "does not extend"},
		{"skips a collection index", record(encodedChange{Cols: []encodedCol{{Index: 5, Name: "new", Docs: 1}}}), "does not extend"},
		{"adds a block whose labels descend", func() []byte {
			eb := jones
			eb.Clusters = []encodedCluster{eb.Clusters[1], eb.Clusters[0]}
			return record(encodedChange{Removed: []uint64{0xCCCC}, Added: []encodedBlock{eb}})
		}(), "cluster label 0 follows 1"},
		{"adds a member beyond its collection", func() []byte {
			eb := jones
			eb.Clusters = append([]encodedCluster(nil), eb.Clusters...)
			eb.Clusters[0].Refs = append([]DocRef(nil), eb.Clusters[0].Refs...)
			eb.Clusters[0].Refs[0].Doc = 99
			return record(encodedChange{Removed: []uint64{0xCCCC}, Added: []encodedBlock{eb}})
		}(), "beyond collection"},
	} {
		// The damaged record sits behind a good one, and a good one behind
		// it must not resurrect the replay.
		log := append(append(append(append([]byte(nil), raw...), good...), tc.rec...), good...)
		got, tail, err := DecodeLog(bytes.NewReader(log))
		if err != nil || tail == nil || !strings.Contains(tail.Error(), tc.why) {
			t.Errorf("%s: DecodeLog = (tail %v, err %v), want the replay ended over %q, not failed", tc.name, tail, err, tc.why)
			continue
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if got.Epoch() != 2 || got.StoreVersion() != 11 || got.blocks[0xCCCC] == nil || got.blocks[0xBBBB] != nil || len(got.order) != 2 {
			t.Errorf("%s: decoded epoch %d, store version %d, %d blocks; want exactly the state the first record committed",
				tc.name, got.Epoch(), got.StoreVersion(), len(got.order))
		}
	}

	// A base that holds one block twice is damage too.
	dup := encodedIndex{ColNames: []string{"smith", "jones"}, ColDocs: []int{6, 4},
		Blocks: []encodedBlock{jones, jones}}
	rec, err := gobRecord(nil, dup)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(rec)); !errors.Is(err, ErrCodecCorrupt) {
		t.Fatalf("duplicate block in the base: %v", err)
	}

	// So is a block whose cluster labels do not ascend strictly: Entity
	// finds a cluster by searching its block's labels.
	twice := jones
	twice.Clusters = []encodedCluster{jones.Clusters[0], jones.Clusters[0]}
	rec, err = gobRecord(nil, encodedIndex{ColNames: []string{"smith", "jones"}, ColDocs: []int{6, 4},
		Blocks: []encodedBlock{twice}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(rec)); !errors.Is(err, ErrCodecCorrupt) {
		t.Fatalf("duplicate cluster label in the base: %v", err)
	}
}

// TestDecodeRecoversResolutions pins that a decoded block answers the
// incremental diff with the resolution it was built from, and that a block
// whose labels could not have come from a clustering is damage: read back in
// (Col, Doc) order, the labels must be dense and numbered in order of first
// appearance, with each document listed once.
func TestDecodeRecoversResolutions(t *testing.T) {
	cols, blocks := fixture()
	x := Build(nil, 1, 10, "knobs", cols, blocks)
	var buf bytes.Buffer
	if err := x.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range blocks {
		res, score, ok := decoded.Committed(br.Fingerprint)
		if !ok || fmt.Sprint(res.Labels) != fmt.Sprint(br.Resolution.Labels) || res.Source != br.Resolution.Source ||
			(score == nil) != (br.Score == nil) || score != nil && *score != *br.Score {
			t.Errorf("block %q decodes to %+v, score %+v; built from %+v, score %+v", br.Name, res, score, br.Resolution, br.Score)
		}
	}
	if _, _, ok := decoded.Committed(0xDEAD); ok {
		t.Error("Committed answers a block the index does not hold")
	}
	if _, _, ok := (*Index)(nil).Committed(0xAAAA); ok {
		t.Error("a nil index answers Committed")
	}

	jones := encodeBlock(x.blocks[0xBBBB]) // label 0 holds docs 0 and 1, label 1 docs 2 and 3
	for _, tc := range []struct {
		name     string
		clusters func(c0, c1 encodedCluster) []encodedCluster
	}{
		{"a negative first label", func(c0, c1 encodedCluster) []encodedCluster {
			c0.Label, c1.Label = -1, 0
			return []encodedCluster{c0, c1}
		}},
		{"labels that skip one", func(c0, c1 encodedCluster) []encodedCluster {
			c1.Label = 2
			return []encodedCluster{c0, c1}
		}},
		{"labels out of first-appearance order", func(c0, c1 encodedCluster) []encodedCluster {
			c0.Refs, c1.Refs = c1.Refs, c0.Refs
			return []encodedCluster{c0, c1}
		}},
		{"a document listed twice", func(c0, c1 encodedCluster) []encodedCluster {
			c1.Refs = []DocRef{c0.Refs[1], c1.Refs[1]}
			return []encodedCluster{c0, c1}
		}},
		{"an empty cluster", func(c0, c1 encodedCluster) []encodedCluster {
			c0.Refs, c0.URLs = append(c0.Refs, c1.Refs...), append(c0.URLs, c1.URLs...)
			c1.Refs, c1.URLs = nil, nil
			return []encodedCluster{c0, c1}
		}},
	} {
		eb := jones
		eb.Clusters = tc.clusters(jones.Clusters[0], jones.Clusters[1])
		rec, err := gobRecord(nil, encodedIndex{ColNames: []string{"smith", "jones"}, ColDocs: []int{6, 4},
			Blocks: []encodedBlock{eb}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(rec)); !errors.Is(err, ErrCodecCorrupt) {
			t.Errorf("a block with %s: Decode = %v, want ErrCodecCorrupt", tc.name, err)
		}
	}
}

// benchIndex builds the benchmark corpus: 50 collections of 200 docs each,
// every collection resolved into 20 clusters of 10.
func benchIndex(b *testing.B) *Index {
	b.Helper()
	cols, blocks := clusteredCorpus(50, 200)
	return Build(nil, 1, uint64(50*200), "bench", cols, blocks)
}

// clusteredCorpus is ncols collections of docs documents each, one block
// per collection, every block resolved into clusters of 10 consecutive
// documents.
func clusteredCorpus(ncols, docs int) ([]*corpus.Collection, []BlockResolution) {
	const perClust = 10
	cols := make([]*corpus.Collection, ncols)
	blocks := make([]BlockResolution, ncols)
	for ci := range cols {
		name := fmt.Sprintf("person%03d", ci)
		col := &corpus.Collection{Name: name, Docs: make([]corpus.Document, docs)}
		members := make([]DocRef, docs)
		labels := make([]int, docs)
		for i := range col.Docs {
			col.Docs[i].ID = i
			col.Docs[i].URL = fmt.Sprintf("http://example.com/%s/%d", name, i)
			members[i] = DocRef{Col: ci, Doc: i}
			labels[i] = i / perClust
		}
		cols[ci] = col
		blocks[ci] = BlockResolution{
			Fingerprint: uint64(0x1000 + ci),
			Name:        name,
			Members:     members,
			Resolution:  &core.Resolution{Labels: labels, Source: "bench"},
		}
	}
	return cols, blocks
}

// splitBlocks resolves cols the way a keyed scheme can block them: a
// collection's documents fall into blocks of size consecutive positions,
// except the positions ≡ 2·size−1 (mod 2·size) of every collection, which
// form one block spanning them all, listed last. A block's fingerprint
// hashes its members, and its clusters are runs of up to 5 members.
func splitBlocks(cols []*corpus.Collection, size int) []BlockResolution {
	var blocks []BlockResolution
	shared := BlockResolution{Name: "shared"}
	for ci, col := range cols {
		for start := 0; start < len(col.Docs); start += size {
			br := BlockResolution{Name: col.Name}
			for pos := start; pos < min(start+size, len(col.Docs)); pos++ {
				if pos%(2*size) == 2*size-1 {
					shared.Members = append(shared.Members, DocRef{Col: ci, Doc: pos})
				} else {
					br.Members = append(br.Members, DocRef{Col: ci, Doc: pos})
				}
			}
			blocks = append(blocks, br)
		}
	}
	blocks = append(blocks, shared)
	for i := range blocks {
		br := &blocks[i]
		h := fnv.New64a()
		fmt.Fprint(h, br.Members)
		br.Fingerprint = h.Sum64()
		br.Resolution = &core.Resolution{Source: "split"}
		for k := range br.Members {
			br.Resolution.Labels = append(br.Resolution.Labels, k/5)
		}
	}
	return blocks
}

// TestRowsFollowTheirBlocks pins the document rows where a collection's
// documents lie in several blocks and one block spans every collection:
// over rounds in which random collections grow, the index rebuilt from the
// previous one answers like one built from nothing, and it shares the
// previous index's row of exactly the collections none of whose blocks
// changed.
func TestRowsFollowTheirBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := make([]*corpus.Collection, 6)
	grow := func(ci, n int) {
		col := cols[ci]
		for i := 0; i < n; i++ {
			col.Docs = append(col.Docs, corpus.Document{ID: len(col.Docs), URL: fmt.Sprintf("http://example.com/%s/%d", col.Name, len(col.Docs))})
		}
	}
	for ci := range cols {
		cols[ci] = &corpus.Collection{Name: fmt.Sprintf("person%d", ci)}
		grow(ci, 4+rng.Intn(8))
	}
	var prev *Index
	var prevShared uint64
	kept, rebuilt := 0, 0
	for round := 1; round <= 30; round++ {
		grown := make([]bool, len(cols))
		for ci := range cols {
			if grown[ci] = rng.Intn(3) == 0; grown[ci] {
				grow(ci, 1+rng.Intn(2))
			}
		}
		blocks := splitBlocks(cols, 3)
		reused := Build(prev, uint64(round), uint64(round), "knobs", cols, blocks)
		fresh := Build(nil, uint64(round), uint64(round), "knobs", cols, blocks)
		if got, want := answers(t, reused, cols), answers(t, fresh, cols); got != want {
			t.Fatalf("round %d: the reused build answers\n%s\nthe fresh build\n%s", round, got, want)
		}
		sharedFP := blocks[len(blocks)-1].Fingerprint
		for ci := range cols {
			if prev == nil {
				break
			}
			want := !grown[ci] && sharedFP == prevShared
			if got := &reused.docs[ci][0] == &prev.docs[ci][0]; got != want {
				t.Fatalf("round %d: collection %d (grown %v, shared block changed %v) shares the previous row: %v, want %v",
					round, ci, grown[ci], sharedFP != prevShared, got, want)
			} else if got {
				kept++
			} else {
				rebuilt++
			}
		}
		prev, prevShared = reused, sharedFP
	}
	if kept == 0 || rebuilt == 0 {
		t.Fatalf("%d rows kept, %d rebuilt: the rounds never exercised both", kept, rebuilt)
	}
}

// TestBuildAllocatesTheDelta is the publish stage's allocation ceiling: a
// Build with one dirty block allocates for the blocks and the dirty block's
// documents, not for the corpus. Over 150 blocks, doubling every block from
// 40 to 80 documents may grow the fewest bytes such a Build allocates over
// 20 runs, each with a different single dirty block, by at most a fifth.
func TestBuildAllocatesTheDelta(t *testing.T) {
	const bound = 1.2
	alloc := func(docs int) uint64 {
		cols, blocks := clusteredCorpus(150, docs)
		prev := Build(nil, 1, 1, "knobs", cols, blocks)
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for i := 0; i < 20; i++ {
			dirty := append([]BlockResolution(nil), blocks...)
			dirty[i].Fingerprint = uint64(0x9000 + i)
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			x := Build(prev, 2, 2, "knobs", cols, dirty)
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
			if x.Clusters() != prev.Clusters() {
				t.Fatalf("clusters = %d, want %d", x.Clusters(), prev.Clusters())
			}
		}
		return least
	}
	small, big := alloc(40), alloc(80)
	ratio := float64(big) / float64(small)
	t.Logf("one dirty block of 150: %d B at 40 docs per block, %d B at 80 (ratio %.2f, bound %.1f)", small, big, ratio, bound)
	if ratio > bound {
		t.Errorf("doubling the documents per block grows a one-dirty-block Build's allocations %.2f×, bound %.1f×", ratio, bound)
	}
}

// BenchmarkServingLookup measures the hot read path — doc→cluster then
// entity-by-ID, the GET /v1/docs + GET /v1/entities sequence — and reports
// lookups/s on one core (the loop is single-goroutine, so ns/op is
// per-core cost directly). The corpus is 50 collections of 200 documents,
// blocked one block per collection (per-collection), or the way a keyed
// scheme can split them (split): 20 blocks per collection plus one block
// spanning all 50.
func BenchmarkServingLookup(b *testing.B) {
	cols, perCollection := clusteredCorpus(50, 200)
	for _, bc := range []struct {
		name   string
		blocks []BlockResolution
	}{{"per-collection", perCollection}, {"split", splitBlocks(cols, 10)}} {
		b.Run(bc.name, func(b *testing.B) {
			x := Build(nil, 1, uint64(50*200), "bench", cols, bc.blocks)
			b.ResetTimer()
			lookups := 0
			for i := 0; i < b.N; i++ {
				col := cols[i%len(cols)].Name
				pos := (i * 7) % 200
				c := x.DocEntity(col, pos)
				if c == nil {
					b.Fatalf("miss at (%s, %d)", col, pos)
				}
				if x.Entity(c.ID) != c {
					b.Fatal("entity lookup mismatch")
				}
				lookups += 2
			}
			b.ReportMetric(float64(lookups)/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

// BenchmarkServingSearch measures the token-search path.
func BenchmarkServingSearch(b *testing.B) {
	x := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := x.Search(fmt.Sprintf("person%03d", i%50), 5)
		if len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkServingRebuild measures an incremental rebuild where one block
// of fifty is dirty — the per-commit cost the atomic swap hides from
// readers.
func BenchmarkServingRebuild(b *testing.B) {
	cols, blocks := clusteredCorpus(50, 200)
	x := Build(nil, 1, uint64(50*200), "bench", cols, blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dirty := append([]BlockResolution(nil), blocks...)
		dirty[i%50].Fingerprint = uint64(0x9000 + i)
		y := Build(x, uint64(i+2), x.StoreVersion(), "bench", cols, dirty)
		if y.Clusters() != x.Clusters() {
			b.Fatalf("clusters = %d, want %d", y.Clusters(), x.Clusters())
		}
	}
}
