package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"strings"
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

// annScheme parses an approximable global scheme.
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

// annBlockerWith builds an ANN blocker for scheme over a graph of degree m
// and beam ef (zero selects the ann package's default). No entry point
// builds one: they block by keys only.
func annBlockerWith(t testing.TB, scheme string, m, ef int) *IndexBlocker {
	t.Helper()
	idx, err := ann.New(ann.Config{Scheme: annScheme(t, scheme), M: m, EfSearch: ef})
	if err != nil {
		t.Fatal(err)
	}
	return NewANNBlockerWith(idx)
}

// TestANNIncrementalEqualsFull extends the equivalence harness to the
// ANN path: for canopy × all strategies × both clusterings, K-batch ingest resolved incrementally through the ANN
// index yields, after the last batch, clusters identical to one full ANN
// resolution of the union by a fresh index.
func TestANNIncrementalEqualsFull(t *testing.T) {
	cols := incrementalCollections(t)
	const batches = 3
	ctx := context.Background()

	schemes := []string{"canopy"}
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
					incremental := incrementalPipelineWith(t, annBlockerWith(t, scheme, 0, 0), strategy, clustering)

					var snap *Snapshot
					var last *IncrementalResult
					for k := 0; k < batches; k++ {
						inc, err := incremental.RunIncremental(ctx, flatPrefix(cols, k, batches), snap)
						if err != nil {
							t.Fatalf("batch %d: %v", k, err)
						}
						if inc.Stats.Blocking == nil {
							t.Fatalf("batch %d: no blocking stats", k)
						}
						snap = inc.Snapshot
						last = inc
					}
					if last.Stats.Blocking.DeltaDocs == 0 {
						t.Fatal("last batch indexed no documents")
					}

					full := incrementalPipelineWith(t, annBlockerWith(t, scheme, 0, 0), strategy, clustering)
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

// TestANNBlockerRestartEqualsFresh pins the ANN restart model: the graph
// lives in memory only, so after a restart a new blocker keys the replayed
// union from scratch. That blocker reports exactly the blocks, members and
// fingerprints of one that kept running (flatPrefix splits keep the
// flattened order a one-shot build reproduces), and inserts the whole union.
func TestANNBlockerRestartEqualsFresh(t *testing.T) {
	cols := incrementalCollections(t)
	ctx := context.Background()
	first := flatPrefix(cols, 1, 3)
	union := flatPrefix(cols, 2, 3)

	ab := annBlockerWith(t, "canopy", 8, 32)
	if _, err := ab.BlockFingerprints(ctx, first); err != nil {
		t.Fatal(err)
	}
	reopened := annBlockerWith(t, "canopy", 8, 32)

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
		t.Fatal("the restarted ANN blocker reports different blocks than the one that kept running")
	}
	unionDocs := 0
	for _, col := range union {
		unionDocs += len(col.Docs)
	}
	if got.Stats.DeltaDocs != unionDocs {
		t.Fatalf("the restarted blocker inserted %d docs, want the whole %d-doc union", got.Stats.DeltaDocs, unionDocs)
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
			got, err := annBlockerWith(t, "canopy", 0, ef).BlockFingerprints(ctx, cols)
			if err != nil {
				t.Fatal(err)
			}
			recall := eval.CandidateRecall(ref, flatten(cols, got.Members))
			t.Logf("efSearch=%d: candidate recall %.4f over %d exact blocks", ef, recall, len(ref))
			if recall < 0.95 {
				t.Fatalf("efSearch=%d: candidate recall %.4f below the 0.95 floor", ef, recall)
			}
		})
	}
}

// TestNewModeBlockerDispatch pins that every configuration an entry point
// accepts blocks through the key index, and that the blocking mode is gone:
// the global schemes it served are refused, naming the schemes that stay.
func TestNewModeBlockerDispatch(t *testing.T) {
	for _, scheme := range []string{"", "exact", "token"} {
		for _, keys := range append([]string{""}, KeyNames...) {
			if _, err := freshBlocker(t, scheme, keys).BlockFingerprints(context.Background(), nil); err != nil {
				t.Errorf("%q/%q: %v", scheme, keys, err)
			}
		}
	}
	for _, scheme := range []string{"canopy", "sortedneighborhood"} {
		if _, err := ParseBlocking(scheme, ""); err == nil || !strings.Contains(err.Error(), "(valid: exact, token)") {
			t.Errorf("ParseBlocking(%q) = %v, want a refusal naming exact, token", scheme, err)
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
	out, err := freshBlocker(t, "exact", "phonetic").BlockFingerprints(context.Background(), cols)
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
