package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/stats"
)

func www05Subset(t *testing.T, n int) []*corpus.Collection {
	t.Helper()
	d, err := corpus.WWW05Profile().Generate(2010)
	if err != nil {
		t.Fatal(err)
	}
	if n > len(d.Collections) {
		n = len(d.Collections)
	}
	return d.Collections[:n]
}

// TestRunMatchesLegacyResolverPath pins the acceptance criterion: with the
// default exact-key scheme the pipeline's output (cluster labels, sources
// and scores) is identical to the pre-refactor per-collection
// Prepare → Run → BestAnyCriterion path on the same seed.
func TestRunMatchesLegacyResolverPath(t *testing.T) {
	cols := www05Subset(t, 3)
	const seed = 7

	opts := core.DefaultOptions()
	opts.Seed = seed
	pl, err := New(Config{Options: opts, Score: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := pl.Run(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cols) {
		t.Fatalf("results = %d blocks, want %d", len(results), len(cols))
	}

	r, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range cols {
		prep, err := r.PrepareCtx(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		a, err := prep.Run(stats.SplitSeedN(seed, i))
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.BestAnyCriterion()
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if got.Block != col {
			t.Errorf("block %d: exact blocking did not reuse the ingested collection", i)
		}
		if got.Resolution.Source != want.Source {
			t.Errorf("block %d: source %q, want %q", i, got.Resolution.Source, want.Source)
		}
		for j := range want.Labels {
			if got.Resolution.Labels[j] != want.Labels[j] {
				t.Fatalf("block %d: label[%d] = %d, want %d", i, j, got.Resolution.Labels[j], want.Labels[j])
			}
		}
		wantScore, err := eval.Evaluate(want.Labels, col.GroundTruth())
		if err != nil {
			t.Fatal(err)
		}
		if got.Score == nil || *got.Score != wantScore {
			t.Errorf("block %d: score %v, want %v", i, got.Score, wantScore)
		}
	}
}

// TestRunMatchesResolverResolve checks the single-block identity against
// core.Resolver.Resolve itself, which uses its seed directly: handed the
// seed the pipeline derives for block 0, it must draw the same sample.
func TestRunMatchesResolverResolve(t *testing.T) {
	cols := www05Subset(t, 1)
	opts := core.DefaultOptions()
	opts.Seed = 42

	pl, err := New(Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	results, err := pl.Run(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}

	opts.Seed = stats.SplitSeedN(opts.Seed, 0)
	r, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.ResolveCtx(context.Background(), cols[0])
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].Resolution
	if got.Source != want.Source {
		t.Errorf("source %q, want %q", got.Source, want.Source)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
}

func TestRunCanceledPromptly(t *testing.T) {
	cols := www05Subset(t, 12)
	pl, err := New(Config{Score: true})
	if err != nil {
		t.Fatal(err)
	}

	// A 1ms deadline fires inside the first block's preparation (feature
	// extraction + ten 100-doc matrices take far longer); the abort must
	// propagate out of the in-flight stages promptly with ctx.Err().
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	results, err := pl.Run(ctx, cols)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if results != nil {
		t.Errorf("partial results returned alongside error")
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}

	// Pre-canceled context: no work at all.
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := pl.Run(canceled, cols); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v, want context.Canceled", err)
	}
}

func TestSchemeBlockerMergesAcrossCollections(t *testing.T) {
	// Two collections whose names share a token; token blocking must merge
	// them into one valid block with densely remapped personas.
	colA := &corpus.Collection{
		Name: "john smith", NumPersonas: 2,
		Docs: []corpus.Document{
			{ID: 0, Text: "a", PersonaID: 1},
			{ID: 1, Text: "b", PersonaID: 0},
		},
	}
	colB := &corpus.Collection{
		Name: "smith, jane", NumPersonas: 1,
		Docs: []corpus.Document{
			{ID: 0, Text: "c", PersonaID: 0},
		},
	}
	blocker := NewSchemeBlocker(blocking.TokenBlocking{})
	blocks, _, err := blocker.BlockMembership(context.Background(), []*corpus.Collection{colA, colB})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d, want 1 merged block", len(blocks))
	}
	b := blocks[0]
	if err := b.Validate(); err != nil {
		t.Fatalf("merged block invalid: %v", err)
	}
	if b.NumPersonas != 3 {
		t.Errorf("merged personas = %d, want 3", b.NumPersonas)
	}
	if !strings.Contains(b.Name, "john smith") || !strings.Contains(b.Name, "smith, jane") {
		t.Errorf("merged name %q does not carry both sources", b.Name)
	}
	// Persona labels remap in first-seen order: doc0(A/1)→0, doc1(A/0)→1,
	// doc2(B/0)→2.
	wantLabels := []int{0, 1, 2}
	for i, d := range b.Docs {
		if d.ID != i || d.PersonaID != wantLabels[i] {
			t.Errorf("doc %d: ID=%d persona=%d, want ID=%d persona=%d",
				i, d.ID, d.PersonaID, i, wantLabels[i])
		}
	}
}

func TestSchemeBlockerSplitsWithinCollection(t *testing.T) {
	// A key function that splits one collection into per-document keys:
	// disconnected docs become singleton blocks that still validate, and
	// Run resolves them trivially.
	col := &corpus.Collection{
		Name: "solo", NumPersonas: 2,
		Docs: []corpus.Document{
			{ID: 0, Text: "a", PersonaID: 1},
			{ID: 1, Text: "b", PersonaID: 0},
		},
	}
	blocker := SchemeBlocker{
		Scheme: blocking.ExactKey{},
		Keys: func(c *corpus.Collection, d corpus.Document) []string {
			return []string{fmt.Sprintf("%s-%d", c.Name, d.ID)}
		},
	}
	pl, err := New(Config{Blocker: blocker, Score: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := pl.Run(context.Background(), []*corpus.Collection{col})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 singleton blocks", len(results))
	}
	for i, res := range results {
		if err := res.Block.Validate(); err != nil {
			t.Errorf("block %d invalid: %v", i, err)
		}
		if got := res.Resolution.NumEntities(); got != 1 {
			t.Errorf("block %d entities = %d, want 1", i, got)
		}
		if res.Score == nil {
			t.Errorf("block %d missing score", i)
		}
	}
}

func TestParseStrategyAndBlockerErrors(t *testing.T) {
	if _, err := ParseStrategy("bogus"); err == nil || !strings.Contains(err.Error(), "best, threshold, weighted, majority") {
		t.Errorf("ParseStrategy error %v does not list valid options", err)
	}
	for _, scheme := range []string{"bogus", "sortedneighborhood", "canopy"} {
		if _, err := ParseBlocking(scheme, ""); err == nil || !strings.Contains(err.Error(), "(valid: exact, token)") {
			t.Errorf("ParseBlocking(%q) error %v does not list valid options", scheme, err)
		}
	}
	if _, err := ParseBlocking("", "bogus"); err == nil || !strings.Contains(err.Error(), "collection, names, urlhost, phonetic") {
		t.Errorf("ParseBlocking keys error %v does not list valid options", err)
	}
	if _, err := core.ParseClusteringMethod("bogus"); err == nil || !strings.Contains(err.Error(), "closure, correlation") {
		t.Errorf("ParseClusteringMethod error %v does not list valid options", err)
	}
	for _, name := range StrategyNames {
		if _, err := ParseStrategy(name); err != nil {
			t.Errorf("ParseStrategy(%q): %v", name, err)
		}
	}
	for _, name := range []string{"exact", "token"} {
		if _, err := ParseBlocking(name, ""); err != nil {
			t.Errorf("ParseBlocking(%q): %v", name, err)
		}
	}
}

func TestNewDefaultsOptionsFieldWise(t *testing.T) {
	// Partially-set Options keep their explicit fields; only zero fields
	// take defaults.
	pl, err := New(Config{Options: core.Options{Seed: 42, Clustering: core.CorrelationClustering}})
	if err != nil {
		t.Fatal(err)
	}
	got := pl.resolver.Options()
	if got.Seed != 42 {
		t.Errorf("Seed = %d, want explicit 42", got.Seed)
	}
	if got.Clustering != core.CorrelationClustering {
		t.Errorf("Clustering = %v, want explicit correlation", got.Clustering)
	}
	def := core.DefaultOptions()
	if got.TrainFraction != def.TrainFraction || got.RegionK != def.RegionK ||
		len(got.FunctionIDs) != len(def.FunctionIDs) {
		t.Errorf("zero fields not defaulted: %+v", got)
	}
}

// TestNewAllocatesNoTable pins what assembling a pipeline costs, which
// every resolve request pays: Table I's ten functions are built once per
// process, so New on the default options allocates the resolver's slice of
// them and a few small structs — 4 objects and 1,048 bytes — where
// rebuilding the table for each function ID took 144 and 12,248.
func TestNewAllocatesNoTable(t *testing.T) {
	cfg := Config{Options: core.DefaultOptions()}
	assemble := func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	objects := testing.AllocsPerRun(100, assemble)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		assemble()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("New on the default options: %v objects, %d bytes", objects, bytes)
	if objects > 4 || bytes > 1100 {
		t.Errorf("New on the default options allocates %v objects and %d bytes, want <= 4 and <= 1,100", objects, bytes)
	}
}

func TestAverageRunsCanceled(t *testing.T) {
	cols := www05Subset(t, 1)
	pl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	blocks, prepared, err := pl.Prepare(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	truths := [][]int{blocks[0].GroundTruth()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = AverageRuns(ctx, prepared, truths, 2,
		func(run, block int) int64 { return stats.SplitSeedN(1, run*1000+block) },
		core.DefaultOptions(), (*core.Analysis).BestAnyCriterion)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
