package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// incrementalCollections generates the growing corpus the incremental
// tests ingest: three person-name collections with different sizes and
// persona structure.
func incrementalCollections(t testing.TB) []*corpus.Collection {
	t.Helper()
	cfgs := []corpus.CollectionConfig{
		{Name: "rivera", NumDocs: 16, NumPersonas: 3, Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: 21},
		{Name: "cohen", NumDocs: 12, NumPersonas: 2, Noise: 0.3, MissingInfo: 0.3, Spurious: 0.1, Seed: 33},
		{Name: "smith", NumDocs: 14, NumPersonas: 4, Noise: 0.5, MissingInfo: 0.1, Spurious: 0.3, Seed: 45},
	}
	cols := make([]*corpus.Collection, len(cfgs))
	for i, cfg := range cfgs {
		col, err := corpus.GenerateCollection(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = col
	}
	return cols
}

// batchPrefix simulates append-only ingestion: batch k of total holds the
// first ceil(len·(k+1)/total) documents of every collection, so each batch
// extends the previous one and the last batch is the full union.
func batchPrefix(cols []*corpus.Collection, k, total int) []*corpus.Collection {
	out := make([]*corpus.Collection, 0, len(cols))
	for _, col := range cols {
		n := (len(col.Docs)*(k+1) + total - 1) / total
		if n > len(col.Docs) {
			n = len(col.Docs)
		}
		docs := append([]corpus.Document(nil), col.Docs[:n]...)
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

// freshBlocker parses a blocking configuration and builds its blocker over
// a new index, the way every entry point does.
func freshBlocker(t testing.TB, scheme, keys, mode string) Blocker {
	t.Helper()
	cfg, err := ParseBlocking(scheme, keys, mode)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.FreshBlocker()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func incrementalPipeline(t testing.TB, scheme, strategy, clustering string) *Pipeline {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 42
	m, err := core.ParseClusteringMethod(clustering)
	if err != nil {
		t.Fatal(err)
	}
	opts.Clustering = m
	strat, err := ParseStrategy(strategy)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(Config{Options: opts, Strategy: strat, Blocker: freshBlocker(t, scheme, "", ""), Score: true})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestIncrementalEqualsFull is the equivalence harness pinning the
// headline guarantee: for every blocking scheme × strategy × clustering
// method, ingesting the documents in K batches and resolving incrementally
// after each batch yields, after the last batch, clusters identical to one
// full resolution of the union.
func TestIncrementalEqualsFull(t *testing.T) {
	cols := incrementalCollections(t)
	const batches = 3

	schemes := []string{"exact", "token", "sortedneighborhood", "canopy"}
	strategies := []string{"best", "threshold", "weighted", "majority"}
	clusterings := []string{"closure", "correlation"}
	if testing.Short() {
		schemes = []string{"exact", "sortedneighborhood"}
		strategies = []string{"best", "weighted"}
		clusterings = []string{"closure"}
	}

	for _, scheme := range schemes {
		for _, strategy := range strategies {
			for _, clustering := range clusterings {
				name := fmt.Sprintf("%s/%s/%s", scheme, strategy, clustering)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					pl := incrementalPipeline(t, scheme, strategy, clustering)
					ctx := context.Background()

					var snap *Snapshot
					var last *IncrementalResult
					for k := 0; k < batches; k++ {
						inc, err := pl.RunIncremental(ctx, batchPrefix(cols, k, batches), snap)
						if err != nil {
							t.Fatalf("batch %d: %v", k, err)
						}
						st := inc.Stats
						if st.Blocks != st.Reused+st.Prepared+st.Trivial {
							t.Fatalf("batch %d: inconsistent stats %+v", k, st)
						}
						if st.Blocks != len(inc.Results) {
							t.Fatalf("batch %d: %d blocks, %d results", k, st.Blocks, len(inc.Results))
						}
						snap = inc.Snapshot
						last = inc
					}

					full, err := pl.RunIncremental(ctx, batchPrefix(cols, batches-1, batches), nil)
					if err != nil {
						t.Fatalf("full: %v", err)
					}
					if full.Stats.Reused != 0 {
						t.Errorf("full run reused %d blocks from a nil snapshot", full.Stats.Reused)
					}

					if len(last.Results) != len(full.Results) {
						t.Fatalf("incremental ended with %d blocks, full run has %d",
							len(last.Results), len(full.Results))
					}
					docs := 0
					for i := range full.Results {
						in, fu := last.Results[i], full.Results[i]
						if in.Block.Name != fu.Block.Name {
							t.Fatalf("block %d: name %q vs %q", i, in.Block.Name, fu.Block.Name)
						}
						if !reflect.DeepEqual(in.Resolution.Labels, fu.Resolution.Labels) {
							t.Errorf("block %d (%s): incremental clusters %v != full clusters %v",
								i, in.Block.Name, in.Resolution.Labels, fu.Resolution.Labels)
						}
						docs += len(fu.Block.Docs)
					}
					want := 0
					for _, col := range cols {
						want += len(col.Docs)
					}
					if docs != want {
						t.Errorf("blocks cover %d documents, union has %d", docs, want)
					}
				})
			}
		}
	}
}

// TestIncrementalSkipsCleanBlocks is the prepare-count probe: after a
// batch that touches only one collection, exact-key blocking must
// re-prepare exactly that one block and reuse the others — provably, via
// the stream stage's PrepareCtx counter and pointer identity of the reused
// resolutions.
func TestIncrementalSkipsCleanBlocks(t *testing.T) {
	cols := incrementalCollections(t)
	pl := incrementalPipeline(t, "exact", "best", "closure")
	ctx := context.Background()

	// First ingest: everything except the last 4 documents of "smith".
	first := batchPrefix(cols, 2, 3)
	smith := first[2]
	smith.Docs = smith.Docs[:len(smith.Docs)-4]
	run1, err := pl.RunIncremental(ctx, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run1.Stats.Prepared != 3 || run1.Stats.Reused != 0 {
		t.Fatalf("first run stats = %+v, want 3 prepared, 0 reused", run1.Stats)
	}

	// Second ingest: only "smith" grew.
	run2, err := pl.RunIncremental(ctx, batchPrefix(cols, 2, 3), run1.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if run2.Stats.Prepared != 1 || run2.Stats.Reused != 2 {
		t.Fatalf("second run stats = %+v, want exactly 1 prepared, 2 reused", run2.Stats)
	}
	byName := func(results []Result, name string) Result {
		for _, r := range results {
			if r.Block.Name == name {
				return r
			}
		}
		t.Fatalf("no block named %q", name)
		return Result{}
	}
	for _, name := range []string{"rivera", "cohen"} {
		r1, r2 := byName(run1.Results, name), byName(run2.Results, name)
		if r1.Resolution != r2.Resolution {
			t.Errorf("block %q was re-resolved: clean blocks must reuse the cached resolution", name)
		}
	}
	if r1, r2 := byName(run1.Results, "smith"), byName(run2.Results, "smith"); r1.Resolution == r2.Resolution {
		t.Error("dirty block \"smith\" reused a stale resolution")
	}
}

// TestIncrementalUnscoredThenScored checks that a snapshot written by an
// unscored pipeline can serve a scored one: reused blocks are scored on
// reuse without re-preparation.
func TestIncrementalUnscoredThenScored(t *testing.T) {
	cols := incrementalCollections(t)
	ctx := context.Background()

	opts := core.DefaultOptions()
	opts.Seed = 42
	unscored, err := New(Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	run1, err := unscored.RunIncremental(ctx, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	scored := incrementalPipeline(t, "exact", "best", "closure")
	run2, err := scored.RunIncremental(ctx, cols, run1.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if run2.Stats.Prepared != 0 || run2.Stats.Reused != len(run2.Results) {
		t.Fatalf("stats = %+v, want all blocks reused", run2.Stats)
	}
	for _, r := range run2.Results {
		if r.Score == nil {
			t.Errorf("block %q reused without a score", r.Block.Name)
		}
	}
}
