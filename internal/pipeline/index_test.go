package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/eval"
)

// randomBatches cuts the collections into k append-only batches at
// rng-chosen points: batch i holds a random (non-decreasing) prefix of
// every collection, and the last batch is the full union. Collections
// enter in order, so later batches may introduce collections earlier ones
// lacked.
func randomBatches(rng *rand.Rand, cols []*corpus.Collection, k int) [][]*corpus.Collection {
	cuts := make([][]int, len(cols))
	for ci, col := range cols {
		cuts[ci] = make([]int, k)
		for b := 0; b < k-1; b++ {
			lo := 0
			if b > 0 {
				lo = cuts[ci][b-1]
			}
			cuts[ci][b] = lo + rng.Intn(len(col.Docs)-lo+1)
		}
		cuts[ci][k-1] = len(col.Docs)
	}
	batches := make([][]*corpus.Collection, k)
	for b := 0; b < k; b++ {
		var batch []*corpus.Collection
		for ci, col := range cols {
			n := cuts[ci][b]
			if n == 0 && ci >= len(batch) && b < k-1 && rng.Intn(2) == 0 {
				continue // this collection has not arrived yet
			}
			docs := append([]corpus.Document(nil), col.Docs[:n]...)
			personas := 0
			for _, d := range docs {
				if d.PersonaID >= personas {
					personas = d.PersonaID + 1
				}
			}
			batch = append(batch, &corpus.Collection{Name: col.Name, Docs: docs, NumPersonas: personas})
		}
		batches[b] = batch
	}
	return batches
}

// TestIndexBlockerMatchesSchemeBlocker is the property harness: for the
// key-based schemes, the key index fed K randomized append-only
// batches must report, after every batch, blocks, members and
// fingerprints identical to a full SchemeBlocker pass (plus the
// diff-side fingerprint formula) over that batch. Its "default" input holds
// the nil Config.Blocker to the served stage, FreshBlocker's key index.
func TestIndexBlockerMatchesSchemeBlocker(t *testing.T) {
	cols := incrementalCollections(t)
	ctx := context.Background()

	for _, scheme := range []string{"exact", "token"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", scheme, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				batches := randomBatches(rng, cols, 4)

				parsed, err := blocking.ParseScheme(scheme)
				if err != nil {
					t.Fatal(err)
				}
				keyed := parsed.(blocking.KeyedScheme)
				ib, err := NewIndexBlocker(keyed, nil, 1+int(seed))
				if err != nil {
					t.Fatal(err)
				}
				sb := NewSchemeBlocker(parsed)

				for bi, batch := range batches {
					got, err := ib.BlockFingerprints(ctx, batch)
					if err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					wantBlocks, wantMembers, err := sb.BlockMembership(ctx, batch)
					if err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					if !reflect.DeepEqual(got.Members, wantMembers) {
						t.Fatalf("batch %d: members %v, want %v", bi, got.Members, wantMembers)
					}
					if !reflect.DeepEqual(got.Blocks, wantBlocks) {
						t.Fatalf("batch %d: index blocks differ from scheme blocks", bi)
					}
					keys := docKeys(batch)
					for i, mem := range wantMembers {
						hashes := make([]uint64, len(mem))
						for j, ref := range mem {
							hashes[j] = keys[ref.Col][ref.Doc]
						}
						if want := blocking.CombineIDs(hashes); got.Fingerprints[i] != want {
							t.Fatalf("batch %d block %d: fingerprint %x, want %x", bi, i, got.Fingerprints[i], want)
						}
					}
				}
			})
		}
	}

	// The nil default is the served block stage: New(Config{}) resolves
	// exactly as a pipeline over ParseBlocking("", "").FreshBlocker() does,
	// for two incremental runs over a growing corpus and then Run.
	t.Run("default", func(t *testing.T) {
		t.Parallel()
		def, err := New(Config{Score: true})
		if err != nil {
			t.Fatal(err)
		}
		served, err := New(Config{Blocker: freshBlocker(t, "", ""), Score: true})
		if err != nil {
			t.Fatal(err)
		}
		scoreBits := func(s *eval.Result) [3]uint64 {
			return [3]uint64{math.Float64bits(s.Fp), math.Float64bits(s.F), math.Float64bits(s.Rand)}
		}
		same := func(what string, got, want []Result) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d blocks, the served stage %d", what, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if !reflect.DeepEqual(g.Block, w.Block) || !slices.Equal(g.Resolution.Labels, w.Resolution.Labels) ||
					g.Resolution.Source != w.Resolution.Source || scoreBits(g.Score) != scoreBits(w.Score) {
					t.Fatalf("%s: block %d resolved %+v, the served stage %+v", what, i, g, w)
				}
			}
		}
		var prevDef, prevServed CommittedRun
		for k := 0; k < 2; k++ {
			batch := batchPrefix(cols, k, 2)
			got, err := def.RunIncremental(ctx, batch, prevDef)
			if err != nil {
				t.Fatal(err)
			}
			want, err := served.RunIncremental(ctx, batch, prevServed)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("incremental batch %d", k)
			same(what, got.Results, want.Results)
			if !reflect.DeepEqual(got.Fingerprints, want.Fingerprints) || !reflect.DeepEqual(got.Members, want.Members) {
				t.Fatalf("%s: fingerprints %x members %v, the served stage %x %v",
					what, got.Fingerprints, got.Members, want.Fingerprints, want.Members)
			}
			prevDef, prevServed = got.Snapshot, want.Snapshot
		}
		got, err := def.Run(ctx, cols)
		if err != nil {
			t.Fatal(err)
		}
		want, err := served.Run(ctx, cols)
		if err != nil {
			t.Fatal(err)
		}
		same("Run", got, want)
	})
}

// TestIndexIncrementalEqualsFull extends the headline guarantee to the
// index path: for exact × token schemes × all strategies × both
// clusterings, K-batch ingest resolved incrementally through the key
// index yields, after the last batch, clusters identical to one full
// SchemeBlocker resolution of the union.
func TestIndexIncrementalEqualsFull(t *testing.T) {
	cols := incrementalCollections(t)
	const batches = 3
	ctx := context.Background()

	schemes := []string{"exact", "token"}
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
					parsed, err := blocking.ParseScheme(scheme)
					if err != nil {
						t.Fatal(err)
					}
					ib, err := NewIndexBlocker(parsed.(blocking.KeyedScheme), nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					indexed := incrementalPipelineWith(t, ib, strategy, clustering)

					var snap *Snapshot
					var last *IncrementalResult
					for k := 0; k < batches; k++ {
						inc, err := indexed.RunIncremental(ctx, batchPrefix(cols, k, batches), snap)
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

					full := incrementalPipeline(t, scheme, strategy, clustering)
					want, err := full.RunIncremental(ctx, batchPrefix(cols, batches-1, batches), nil)
					if err != nil {
						t.Fatalf("full: %v", err)
					}
					if len(last.Results) != len(want.Results) {
						t.Fatalf("index path ended with %d blocks, full scheme run has %d",
							len(last.Results), len(want.Results))
					}
					for i := range want.Results {
						in, fu := last.Results[i], want.Results[i]
						if in.Block.Name != fu.Block.Name {
							t.Fatalf("block %d: name %q vs %q", i, in.Block.Name, fu.Block.Name)
						}
						if !reflect.DeepEqual(in.Resolution.Labels, fu.Resolution.Labels) {
							t.Errorf("block %d (%s): index clusters %v != scheme clusters %v",
								i, in.Block.Name, in.Resolution.Labels, fu.Resolution.Labels)
						}
					}
				})
			}
		}
	}
}

// incrementalPipelineWith assembles a scored pipeline over an explicit
// blocker.
func incrementalPipelineWith(t *testing.T, blocker Blocker, strategy, clustering string) *Pipeline {
	t.Helper()
	ref := incrementalPipeline(t, "exact", strategy, clustering)
	opts := ref.resolver.Options()
	strat, err := ParseStrategy(strategy)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(Config{Options: opts, Strategy: strat, Blocker: blocker, Score: true})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestIndexBlockerRestartEqualsFresh pins the restart path: an index
// encoded mid-stream and decoded into a new blocker reports exactly the
// blocks of a freshly built one, and keeps indexing incrementally.
func TestIndexBlockerRestartEqualsFresh(t *testing.T) {
	cols := incrementalCollections(t)
	ctx := context.Background()
	first := batchPrefix(cols, 1, 3)
	union := batchPrefix(cols, 2, 3)

	ib, err := NewIndexBlocker(blocking.TokenBlocking{}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ib.BlockFingerprints(ctx, first); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := ib.Index().EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := blockindex.Decode(&buf, blockindex.Config{Scheme: blocking.TokenBlocking{}})
	if err != nil {
		t.Fatal(err)
	}
	reopened := NewIndexBlockerWith(decoded)

	fresh, err := NewIndexBlocker(blocking.TokenBlocking{}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.BlockFingerprints(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.BlockFingerprints(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Blocks, want.Blocks) ||
		!reflect.DeepEqual(got.Members, want.Members) ||
		!reflect.DeepEqual(got.Fingerprints, want.Fingerprints) {
		t.Fatal("reopened index reports different blocks than a freshly built one")
	}
	if got.Stats.DeltaDocs >= want.Stats.DeltaDocs {
		t.Fatalf("reopened index re-indexed %d docs, fresh one %d — the restart head-start is gone",
			got.Stats.DeltaDocs, want.Stats.DeltaDocs)
	}
}

// TestIndexBlockerConcurrentWarm is the regression harness for the
// update/membership atomicity race: a warmer advancing the shared index
// with ever-newer snapshots must never make a resolve over an older
// snapshot hand out member refs beyond that snapshot (which used to panic
// in block assembly). Stale snapshots either resolve via the full-pass
// fallback or atomically within their own corpus.
func TestIndexBlockerConcurrentWarm(t *testing.T) {
	cols := incrementalCollections(t)
	ctx := context.Background()
	const steps = 12

	ib, err := NewIndexBlocker(blocking.TokenBlocking{}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < steps; k++ {
			if _, err := ib.Warm(batchPrefix(cols, k, steps)); err != nil {
				t.Errorf("warm batch %d: %v", k, err)
				return
			}
		}
	}()

	snapshot := batchPrefix(cols, steps/2, steps)
	for i := 0; i < 50; i++ {
		got, err := ib.BlockFingerprints(ctx, snapshot)
		if err != nil && !errors.Is(err, blockindex.ErrOutOfSync) {
			t.Fatalf("resolve %d: %v", i, err)
		}
		if err != nil {
			continue
		}
		for _, mem := range got.Members {
			for _, ref := range mem {
				if ref.Col >= len(snapshot) || ref.Doc >= len(snapshot[ref.Col].Docs) {
					t.Fatalf("resolve %d handed out ref %+v beyond the caller's snapshot", i, ref)
				}
			}
		}
	}
	<-done
}

// TestNamesKeyMergesVariants pins the richer-keys satellite: with
// person-name keys, pages about one person retrieved under different
// query spellings land in one block.
func TestNamesKeyMergesVariants(t *testing.T) {
	cols := []*corpus.Collection{
		{Name: "smith, j", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://a.example/1", Text: "John Smith wrote the database survey", PersonaID: 0},
			{ID: 1, URL: "http://a.example/2", Text: "a report by John Smith on indexing", PersonaID: 0},
		}},
		{Name: "john smith", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://b.example/1", Text: "John Smith presented the keynote", PersonaID: 0},
		}},
		{Name: "jones", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://c.example/1", Text: "Mary Jones founded the lab", PersonaID: 0},
		}},
	}
	ctx := context.Background()

	// Collection-name keys keep the spellings apart…
	out, err := freshBlocker(t, "exact", "collection").BlockFingerprints(ctx, cols)
	if err != nil {
		t.Fatal(err)
	}
	if blocks := out.Blocks; len(blocks) != 3 {
		t.Fatalf("collection keys produced %d blocks, want 3", len(blocks))
	}

	// …person-name keys merge them.
	out, err = freshBlocker(t, "exact", "names").BlockFingerprints(ctx, cols)
	if err != nil {
		t.Fatal(err)
	}
	blocks := out.Blocks
	if len(blocks) != 2 {
		t.Fatalf("name keys produced %d blocks, want 2 (smith variants merged, jones apart)", len(blocks))
	}
	if blocks[0].Name != "smith, j+john smith" || len(blocks[0].Docs) != 3 {
		t.Fatalf("merged block is %q with %d docs, want the 3 smith pages in one block",
			blocks[0].Name, len(blocks[0].Docs))
	}
}

// TestNewBlockerPicksIndexForKeyedSchemes pins the dispatch: every scheme
// an entry point accepts gets the incremental key index, which keys the
// whole corpus as its first delta.
func TestNewBlockerPicksIndexForKeyedSchemes(t *testing.T) {
	for _, scheme := range []string{"exact", "token"} {
		out, err := freshBlocker(t, scheme, "").BlockFingerprints(context.Background(), incrementalCollections(t))
		if err != nil || out.Stats.DeltaDocs == 0 {
			t.Errorf("%s: blocking stats %+v (err %v), want the key index's", scheme, out.Stats, err)
		}
	}
}

// TestURLHostKeyBlocksByHost pins the urlhost key function: pages hosted
// together block together regardless of which query retrieved them, and a
// page with no parseable host falls back to its collection name.
func TestURLHostKeyBlocksByHost(t *testing.T) {
	cols := []*corpus.Collection{
		{Name: "smith", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://lab.example/people/smith", Text: "bio", PersonaID: 0},
			{ID: 1, URL: "http://other.example/smith", Text: "talk", PersonaID: 0},
		}},
		{Name: "jones", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://lab.example/people/jones", Text: "bio", PersonaID: 0},
		}},
	}

	keys, err := ParseKeys("urlhost")
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(cols[0], cols[0].Docs[0]); len(got) != 1 || got[0] != "lab.example" {
		t.Fatalf("urlhost keys = %v, want [lab.example]", got)
	}
	noURL := corpus.Document{ID: 2, Text: "no url", PersonaID: 0}
	if got := keys(cols[0], noURL); len(got) != 1 || got[0] != "smith" {
		t.Fatalf("fallback keys = %v, want the collection name", got)
	}

	out, err := freshBlocker(t, "exact", "urlhost").BlockFingerprints(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	blocks := out.Blocks
	// lab.example merges smith/0 with jones/0; other.example keeps smith/1
	// apart: two blocks.
	if len(blocks) != 2 {
		t.Fatalf("urlhost keys produced %d blocks, want 2", len(blocks))
	}
	sizes := []int{len(blocks[0].Docs), len(blocks[1].Docs)}
	if sizes[0]+sizes[1] != 3 || (sizes[0] != 2 && sizes[1] != 2) {
		t.Fatalf("block sizes = %v, want one merged pair and one singleton", sizes)
	}

	// ParseKeys rejects unknown names and lists urlhost among the valid
	// spellings.
	if _, err := ParseKeys("nope"); err == nil || !strings.Contains(err.Error(), "urlhost") {
		t.Fatalf("unknown key error = %v, want mention of urlhost", err)
	}
}
