package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ann"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/eval"
)

// flatPrefix simulates append-only ingestion in flattened (collection,
// position) order: batch k of total holds the first ceil(T·(k+1)/total)
// documents of the concatenated corpus, filling collections in order.
// Unlike batchPrefix (which grows every collection at once), these are
// the splits the ann package promises reproduce a one-shot build bit for
// bit — insertion order is what a deterministic proximity graph hinges
// on.
func flatPrefix(cols []*corpus.Collection, k, total int) []*corpus.Collection {
	t := 0
	for _, col := range cols {
		t += len(col.Docs)
	}
	n := (t*(k+1) + total - 1) / total
	out := make([]*corpus.Collection, 0, len(cols))
	for _, col := range cols {
		if n <= 0 {
			break
		}
		take := len(col.Docs)
		if take > n {
			take = n
		}
		n -= take
		docs := append([]corpus.Document(nil), col.Docs[:take]...)
		personas := 0
		for _, d := range docs {
			if d.PersonaID >= personas {
				personas = d.PersonaID + 1
			}
		}
		out = append(out, &corpus.Collection{Name: col.Name, Docs: docs, NumPersonas: personas})
	}
	return out
}

// annScheme parses one of the approximable global schemes.
func annScheme(t testing.TB, name string) blocking.ApproxScheme {
	t.Helper()
	parsed, err := blocking.ParseScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	approx, ok := parsed.(blocking.ApproxScheme)
	if !ok {
		t.Fatalf("scheme %q is %T, not approximable", name, parsed)
	}
	return approx
}

// annBlocker builds a fresh "ann"-mode blocker for scheme through
// ParseBlocking, as an entry point would.
func annBlocker(t testing.TB, scheme string, annM, annEf int) *IndexBlocker {
	t.Helper()
	return freshBlocker(t, scheme, "", "ann", annM, annEf).(*IndexBlocker)
}

// TestANNIncrementalEqualsFull extends the equivalence harness to the
// ANN path: for canopy and sorted neighborhood × all strategies × both
// clusterings, K-batch ingest resolved incrementally through the ANN
// index yields, after the last batch, clusters identical to one full ANN
// resolution of the union by a fresh index.
func TestANNIncrementalEqualsFull(t *testing.T) {
	cols := incrementalCollections(t)
	const batches = 3
	ctx := context.Background()

	schemes := []string{"canopy", "sortedneighborhood"}
	strategies := []string{"best", "threshold", "weighted", "majority"}
	clusterings := []string{"closure", "correlation"}
	if testing.Short() {
		strategies = []string{"best", "weighted"}
		clusterings = []string{"closure"}
	}

	for _, scheme := range schemes {
		for _, strategy := range strategies {
			for _, clustering := range clusterings {
				name := fmt.Sprintf("%s/%s/%s", scheme, strategy, clustering)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					incremental := incrementalPipelineWith(t, annBlocker(t, scheme, 0, 0), strategy, clustering)

					var snap *Snapshot
					var last *IncrementalResult
					for k := 0; k < batches; k++ {
						inc, err := incremental.RunIncremental(ctx, flatPrefix(cols, k, batches), snap)
						if err != nil {
							t.Fatalf("batch %d: %v", k, err)
						}
						if inc.Stats.Blocking == nil || inc.Stats.Blocking.Indexer != "ann" {
							t.Fatalf("batch %d: blocking stats %+v, want the ann path", k, inc.Stats.Blocking)
						}
						snap = inc.Snapshot
						last = inc
					}
					if last.Stats.Blocking.DeltaDocs == 0 {
						t.Fatal("last batch indexed no documents")
					}

					full := incrementalPipelineWith(t, annBlocker(t, scheme, 0, 0), strategy, clustering)
					want, err := full.RunIncremental(ctx, flatPrefix(cols, batches-1, batches), nil)
					if err != nil {
						t.Fatalf("full: %v", err)
					}
					if len(last.Results) != len(want.Results) {
						t.Fatalf("ANN incremental ended with %d blocks, full ANN run has %d",
							len(last.Results), len(want.Results))
					}
					for i := range want.Results {
						in, fu := last.Results[i], want.Results[i]
						if in.Block.Name != fu.Block.Name {
							t.Fatalf("block %d: name %q vs %q", i, in.Block.Name, fu.Block.Name)
						}
						if !reflect.DeepEqual(in.Resolution.Labels, fu.Resolution.Labels) {
							t.Errorf("block %d (%s): incremental clusters %v != full clusters %v",
								i, in.Block.Name, in.Resolution.Labels, fu.Resolution.Labels)
						}
					}
				})
			}
		}
	}
}

// TestANNBlockerRestartEqualsFresh pins the ANN restart path: an index
// encoded mid-stream and decoded into a new blocker reports exactly the
// blocks of one that kept running, and re-inserts only the delta.
func TestANNBlockerRestartEqualsFresh(t *testing.T) {
	cols := incrementalCollections(t)
	ctx := context.Background()
	first := flatPrefix(cols, 1, 3)
	union := flatPrefix(cols, 2, 3)

	cfg := ann.Config{Scheme: annScheme(t, "canopy"), M: 8, EfSearch: 32}
	ab := annBlocker(t, "canopy", cfg.M, cfg.EfSearch)
	if _, err := ab.BlockFingerprints(ctx, first); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := ab.Index().EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ann.Decode(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reopened := NewANNBlockerWith(decoded)

	got, err := reopened.BlockFingerprints(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ab.BlockFingerprints(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Blocks, want.Blocks) ||
		!reflect.DeepEqual(got.Members, want.Members) ||
		!reflect.DeepEqual(got.Fingerprints, want.Fingerprints) {
		t.Fatal("reopened ANN index reports different blocks than the one that kept running")
	}
	if got.Stats.DeltaDocs != want.Stats.DeltaDocs {
		t.Fatalf("reopened index inserted %d docs, the running one %d — the restart head-start is gone",
			got.Stats.DeltaDocs, want.Stats.DeltaDocs)
	}
	firstDocs, unionDocs := 0, 0
	for _, col := range first {
		firstDocs += len(col.Docs)
	}
	for _, col := range union {
		unionDocs += len(col.Docs)
	}
	if got.Stats.DeltaDocs != unionDocs-firstDocs {
		t.Fatalf("reopened index inserted %d docs, want only the %d-doc delta",
			got.Stats.DeltaDocs, unionDocs-firstDocs)
	}
}

// recallCorpus generates the seeded corpus the recall harness and the
// benchmark share: collections whose names overlap token-wise, so exact
// canopy builds cross-collection blocks the ANN index must rediscover.
func recallCorpus(tb testing.TB, nCols, nDocs int) []*corpus.Collection {
	tb.Helper()
	surnames := []string{"smith", "rivera", "cohen", "tanaka", "okafor", "larsen"}
	given := []string{"john", "maria", "wei", "amara", "erik", "fatima", "david", "yuki"}
	cols := make([]*corpus.Collection, nCols)
	for i := range cols {
		name := fmt.Sprintf("%s %s", given[i%len(given)], surnames[i%len(surnames)])
		if i%3 == 0 {
			name = fmt.Sprintf("%s %c %s", given[i%len(given)], 'a'+rune(i%26), surnames[i%len(surnames)])
		}
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: name, NumDocs: nDocs, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(7000 + i),
		})
		if err != nil {
			tb.Fatal(err)
		}
		cols[i] = col
	}
	return cols
}

// flatten maps member refs to flattened document indices for the recall
// metric.
func flatten(cols []*corpus.Collection, members [][]DocRef) [][]int {
	base := make([]int, len(cols))
	off := 0
	for ci, col := range cols {
		base[ci] = off
		off += len(col.Docs)
	}
	out := make([][]int, len(members))
	for i, mem := range members {
		out[i] = make([]int, len(mem))
		for j, ref := range mem {
			out[i][j] = base[ref.Col] + ref.Doc
		}
	}
	return out
}

// TestANNCanopyRecall pins the recall harness: against the exact canopy
// blocks on the seeded corpus, the ANN index must keep candidate recall
// at or above 0.95 across three efSearch settings.
func TestANNCanopyRecall(t *testing.T) {
	cols := recallCorpus(t, 18, 12)
	ctx := context.Background()
	scheme := annScheme(t, "canopy")

	_, exact, err := NewSchemeBlocker(scheme).BlockMembership(ctx, cols)
	if err != nil {
		t.Fatal(err)
	}
	ref := flatten(cols, exact)

	for _, ef := range []int{24, 64, 128} {
		t.Run(fmt.Sprintf("ef%d", ef), func(t *testing.T) {
			got, err := annBlocker(t, "canopy", 0, ef).BlockFingerprints(ctx, cols)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.AnnEf != ef {
				t.Fatalf("stats %+v do not echo efSearch %d", got.Stats, ef)
			}
			recall := eval.CandidateRecall(ref, flatten(cols, got.Members))
			t.Logf("efSearch=%d: candidate recall %.4f over %d exact blocks", ef, recall, len(ref))
			if recall < 0.95 {
				t.Fatalf("efSearch=%d: candidate recall %.4f below the 0.95 floor", ef, recall)
			}
		})
	}
}

// TestNewModeBlockerDispatch pins the mode switch: exact mode keeps
// today's dispatch bit for bit, ann mode serves global schemes from the
// candidate index and rejects key-based schemes, unusable or misplaced
// graph knobs and junk modes.
func TestNewModeBlockerDispatch(t *testing.T) {
	if b, ok := freshBlocker(t, "", "", "", 0, 0).(*IndexBlocker); !ok {
		t.Errorf("default mode: got %T, want *IndexBlocker", b)
	}
	if b, ok := freshBlocker(t, "canopy", "", "exact", 0, 0).(SchemeBlocker); !ok {
		t.Errorf("exact mode, canopy: got %T, want SchemeBlocker", b)
	}
	b := freshBlocker(t, "canopy", "", "ann", 0, 0)
	if _, ok := b.(*IndexBlocker); !ok {
		t.Errorf("ann mode, canopy: got %T, want *IndexBlocker", b)
	} else if out, err := b.BlockFingerprints(context.Background(), nil); err != nil || out.Stats.Indexer != "ann" {
		t.Errorf("ann mode, canopy: stats say indexer %q (err %v), want \"ann\"", out.Stats.Indexer, err)
	}
	for _, bad := range []struct {
		why          string
		scheme, mode string
		annM, annEf  int
	}{
		{"ann mode accepted a key-based scheme", "exact", "ann", 0, 0},
		{"ann mode accepted a degenerate graph degree", "canopy", "ann", 1, 0},
		{"ann mode accepted a negative graph degree", "canopy", "ann", -4, 0},
		{"ann mode accepted a negative beam width", "canopy", "ann", 0, -1},
		{"exact mode accepted graph knobs", "canopy", "exact", 0, 32},
		{"the default mode accepted graph knobs", "", "", 16, 0},
		{"unknown mode was accepted", "exact", "fuzzy", 0, 0},
	} {
		if _, err := ParseBlocking(bad.scheme, "", bad.mode, bad.annM, bad.annEf); err == nil {
			t.Error(bad.why)
		}
	}
}

// TestPhoneticKeyMergesSpellings pins the phonetic key function: name
// spellings that sound alike land in one block under exact-key blocking.
func TestPhoneticKeyMergesSpellings(t *testing.T) {
	cols := []*corpus.Collection{
		{Name: "jon smyth", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://a.example/1", Text: "Jon Smyth wrote the parser", PersonaID: 0},
		}},
		{Name: "john smith", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://b.example/1", Text: "John Smith presented the keynote", PersonaID: 0},
		}},
		{Name: "mary jones", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://c.example/1", Text: "Mary Jones founded the lab", PersonaID: 0},
		}},
	}
	out, err := freshBlocker(t, "exact", "phonetic", "", 0, 0).BlockFingerprints(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	blocks := out.Blocks
	if len(blocks) != 2 {
		t.Fatalf("phonetic keys produced %d blocks, want 2 (smyth/smith merged, jones apart)", len(blocks))
	}
	if blocks[0].Name != "jon smyth+john smith" || len(blocks[0].Docs) != 2 {
		t.Fatalf("merged block is %q with %d docs, want the two smith spellings together",
			blocks[0].Name, len(blocks[0].Docs))
	}
}
