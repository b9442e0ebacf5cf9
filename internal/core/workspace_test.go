package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/simfn"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// workspaceBlock generates a WWW'05-shaped block of n pages.
func workspaceBlock(t *testing.T, n int, seed int64) *corpus.Collection {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: fmt.Sprintf("block%d", n), NumDocs: n, NumPersonas: min(n, 6),
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// vocabularyBlock is a block of pages over a vocabulary of its own: every
// word is tag followed by letters, so two tags share no token with each
// other or with the generator's wordlists. Page i belongs to persona i%3
// and draws extra words from that persona's third of the vocabulary; the
// block holds words distinct words, up to rounding.
func vocabularyBlock(tag string, pages, words int, seed int64) *corpus.Collection {
	rng := rand.New(rand.NewSource(seed))
	word := func(k int) string {
		w := []byte(tag)
		for ; k > 0; k /= 26 {
			w = append(w, byte('a'+k%26))
		}
		return string(w)
	}
	col := &corpus.Collection{Name: tag + " " + word(1), NumPersonas: 3}
	per := max(words/pages, 1)
	for i := 0; i < pages; i++ {
		persona := i % 3
		var text strings.Builder
		text.WriteString(col.Name + " ")
		for k := 0; k < per; k++ {
			text.WriteString(word(i*per+k) + " ") // every word of the vocabulary once
			if rng.Intn(2) == 0 {
				text.WriteString(word((rng.Intn(words/3+1)*3+persona)%words) + " ") // the persona's words again
			}
		}
		col.Docs = append(col.Docs, corpus.Document{
			ID: i, URL: fmt.Sprintf("http://%s%d.example/p%d", tag, persona, i), Text: text.String(), PersonaID: persona,
		})
	}
	return col
}

// reversed is col with its pages in reverse order.
func reversed(col *corpus.Collection) *corpus.Collection {
	out := *col
	out.Docs = slices.Clone(col.Docs)
	slices.Reverse(out.Docs)
	for i := range out.Docs {
		out.Docs[i].ID = i
	}
	return &out
}

// TestWorkspaceMatchesFresh prepares and resolves blocks one after another
// in one workspace and requires each to equal its resolve in fresh memory:
// the block's features, packed vectors and vocabulary, every matrix cell
// by its bits, every decision graph's closure, threshold, estimate,
// training accuracy and calibration, and the final labels and source. Each
// committed Resolution must come through every later block of the
// workspace unchanged. The legs vary what the workspace carries from block
// to block: blocks of varying size; the same blocks in two orders; a block
// after one whose vocabulary it shares nothing with; and a run in which
// one block takes the lexicon past extract.LexiconCap, so the next — an
// earlier block's pages in reverse order — starts it over and gives its
// tokens new IDs.
func TestWorkspaceMatchesFresh(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, cols []*corpus.Collection) {
		var ws Workspace
		type committed struct {
			res    *Resolution
			labels []int
		}
		var held []committed
		for i, col := range cols {
			label := fmt.Sprintf("block %d (%q, %d pages)", i, col.Name, len(col.Docs))
			got := matchesFresh(t, label, r, &ws, col, int64(1000+i))
			held = append(held, committed{got, slices.Clone(got.Labels)})
			for k, c := range held {
				if !slices.Equal(c.res.Labels, c.labels) {
					t.Fatalf("block %d's committed labels changed after block %d", k, i)
				}
			}
		}
	}
	t.Run("sizes", func(t *testing.T) {
		var cols []*corpus.Collection
		for i, n := range []int{100, 12, 2, 150, 40, 3} {
			cols = append(cols, workspaceBlock(t, n, int64(i+1)))
		}
		run(t, cols)
	})
	t.Run("orders", func(t *testing.T) {
		x, y, z := workspaceBlock(t, 40, 11), vocabularyBlock("zq", 30, 400, 12), workspaceBlock(t, 60, 13)
		run(t, []*corpus.Collection{x, y, z})
		run(t, []*corpus.Collection{z, y, x})
	})
	t.Run("disjoint", func(t *testing.T) {
		run(t, []*corpus.Collection{
			vocabularyBlock("qv", 40, 600, 21), vocabularyBlock("xj", 40, 600, 22), workspaceBlock(t, 40, 23),
		})
	})
	t.Run("cap", func(t *testing.T) {
		first := workspaceBlock(t, 40, 31)
		run(t, []*corpus.Collection{
			first,
			vocabularyBlock("kw", 24, extract.LexiconCap+2000, 32), // passes the cap
			reversed(first), // starts the lexicon over: its tokens take new IDs
			workspaceBlock(t, 60, 34),
		})
	})
}

// matchesFresh prepares and resolves col in ws and fails t unless every
// stage equals its result in fresh memory; it returns the resolution.
func matchesFresh(t *testing.T, label string, r *Resolver, ws *Workspace, col *corpus.Collection, seed int64) *Resolution {
	t.Helper()
	ctx := context.Background()
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	fresh, err := r.PrepareCtx(ctx, col)
	if err != nil {
		t.Fatal(err)
	}
	freshRun, err := fresh.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshRun.BestAnyCriterion()
	if err != nil {
		t.Fatal(err)
	}

	prep, err := r.PrepareIn(ctx, ws, col)
	if err != nil {
		t.Fatal(err)
	}
	samePacked := func(a, b *textsim.PackedVector) bool {
		return reflect.DeepEqual(a, b) && slices.EqualFunc(a.Weights, b.Weights, sameBits)
	}
	for i, d := range prep.Block.Docs {
		w := &fresh.Block.Docs[i]
		if !reflect.DeepEqual(d, *w) || !samePacked(d.Packed, w.Packed) || !samePacked(d.ConceptPacked, w.ConceptPacked) ||
			!slices.EqualFunc(d.Features.ConceptVector, w.Features.ConceptVector, func(a, b extract.WeightedConcept) bool {
				return a.Name == b.Name && sameBits(a.Weight, b.Weight)
			}) {
			t.Fatalf("%s: document %d differs from fresh memory", label, i)
		}
	}
	if v, w := prep.Block.Vocab, fresh.Block.Vocab; v.Len() != w.Len() {
		t.Fatalf("%s: vocabulary of %d entries, fresh memory %d", label, v.Len(), w.Len())
	} else {
		for id := range int32(v.Len()) {
			if v.Term(id) != w.Term(id) {
				t.Fatalf("%s: vocabulary ID %d is %q, fresh memory %q", label, id, v.Term(id), w.Term(id))
			}
		}
	}
	if prep.Matrices != nil {
		t.Fatalf("%s: PrepareIn computed matrices", label)
	}
	// RunIn computes the matrices group by group in the workspace; read
	// them the same way.
	for _, group := range simfn.Groups(r.funcs) {
		var funcs []simfn.Func
		for _, fi := range group {
			funcs = append(funcs, r.funcs[fi])
		}
		ms, err := ws.sim.ComputeAll(ctx, prep.Block, funcs)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(group) {
			t.Fatalf("%s: %d matrices for a group of %d", label, len(ms), len(group))
		}
		for _, f := range funcs {
			got, m := ms[f.ID], fresh.Matrices[f.ID]
			if got.Len() != m.Len() || !slices.EqualFunc(got.Values(), m.Values(), sameBits) {
				t.Fatalf("%s: matrix %s differs from fresh memory", label, f.ID)
			}
		}
	}
	a, err := prep.RunIn(ctx, ws, seed)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, label, a, freshRun)
	got, err := a.BestAnyCriterion()
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != want.Source || !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("%s: resolved %s %v, fresh memory %s %v", label, got.Source, got.Labels, want.Source, want.Labels)
	}
	return got
}

// requireSameAnalysis fails t unless got and want drew the same training
// sample and built the same decision graphs: every graph's edges, closure,
// Threshold, Estimate, TrainAccuracy and Calibration, floats by their bits.
func requireSameAnalysis(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if !slices.Equal(got.Train.Pairs, want.Train.Pairs) || !slices.Equal(got.Train.Links, want.Train.Links) {
		t.Fatalf("%s: training sample differs", label)
	}
	if len(got.Graphs) != len(want.Graphs) {
		t.Fatalf("%s: %d graphs, want %d", label, len(got.Graphs), len(want.Graphs))
	}
	for g, dg := range got.Graphs {
		w := want.Graphs[g]
		requireSameDecisionGraph(t, label, dg, w)
		if !reflect.DeepEqual(dg.Estimate, w.Estimate) || !slices.Equal(dg.closure, w.closure) {
			t.Fatalf("%s: graph %s: estimate or closure differs", label, dg.Label())
		}
	}
}

// TestRunInMatchesPrepared resolves blocks one after another in one
// workspace, whose RunIn computes each function group's matrices just
// before the group's decision graphs, and requires every analysis to equal
// RunIn on a PrepareCtx Prepared, which reads the ten matrices computed up
// front, and the graphs to be the reference's, in function order: the
// decision graphs (requireSameAnalysis) and the Resolutions of
// the best-graph, threshold, weighted (over all functions and over two)
// and majority combinations, under both clusterings.
func TestRunInMatchesPrepared(t *testing.T) {
	ctx := context.Background()
	strategies := []func(a *Analysis) (*Resolution, error){
		(*Analysis).BestAnyCriterion,
		func(a *Analysis) (*Resolution, error) { return a.BestOver(nil, ThresholdCriterion) },
		func(a *Analysis) (*Resolution, error) { return a.WeightedAverageOver(nil) },
		func(a *Analysis) (*Resolution, error) { return a.WeightedAverageOver([]string{"F3", "F9"}) },
		(*Analysis).MajorityVote,
	}
	for _, clustering := range []ClusteringMethod{TransitiveClosure, CorrelationClustering} {
		opts := DefaultOptions()
		opts.Clustering = clustering
		r, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		var ws, other Workspace
		for i, n := range []int{60, 12, 100, 2, 40} {
			col := workspaceBlock(t, n, int64(50+i))
			label := fmt.Sprintf("%s, block %d (%d pages)", clustering, i, n)
			seed := int64(500 + i)
			full, err := r.PrepareCtx(ctx, col)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.RunIn(ctx, &other, seed)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := r.PrepareIn(ctx, &ws, col)
			if err != nil {
				t.Fatal(err)
			}
			got, err := prep.RunIn(ctx, &ws, seed)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnalysis(t, label, got, want)
			// Both analyses take the groups in one order; the reference
			// builds the graphs function by function, in the order
			// SelectBestGraph breaks ties by.
			ref, err := referenceRunWith(full, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) != len(got.Graphs) {
				t.Fatalf("%s: %d graphs, reference %d", label, len(got.Graphs), len(ref))
			}
			for g := range ref {
				requireSameDecisionGraph(t, label, got.Graphs[g], ref[g])
			}
			for k, strategy := range strategies {
				g, err := strategy(got)
				if err != nil {
					t.Fatal(err)
				}
				w, err := strategy(want)
				if err != nil {
					t.Fatal(err)
				}
				if g.Source != w.Source || !slices.Equal(g.Labels, w.Labels) {
					t.Fatalf("%s, strategy %d: %s %v, want %s %v", label, k, g.Source, g.Labels, w.Source, w.Labels)
				}
			}
		}
	}
}

// TestWorkspaceRNGReseeded: the workspace keeps one RNG, and after any use
// it draws, re-seeded, exactly what a fresh stats.NewRNG of the seed draws.
func TestWorkspaceRNGReseeded(t *testing.T) {
	draw := func(rng *rand.Rand) []int64 {
		buf := make([]byte, 3) // Read keeps a partial value between calls
		rng.Read(buf)
		out := []int64{int64(buf[0]), int64(buf[1]), int64(buf[2]), rng.Int63(), int64(math.Float64bits(rng.Float64())), int64(rng.Intn(7))}
		for _, p := range rng.Perm(6) {
			out = append(out, int64(p))
		}
		return out
	}
	var ws Workspace
	first := ws.seeded(1)
	for i, seed := range []int64{1, 1, -7, 42, 0} {
		rng := ws.seeded(seed)
		if rng != first {
			t.Fatalf("seed %d: a new RNG, not the workspace's", seed)
		}
		if got, want := draw(rng), draw(stats.NewRNG(seed)); !slices.Equal(got, want) {
			t.Fatalf("seed %d: draws %v, a fresh RNG %v", seed, got, want)
		}
		// Arbitrary use before the next seeding.
		rng.Read(make([]byte, 1+i))
		rng.NormFloat64()
		rng.Shuffle(5+i, func(int, int) {})
	}
}

// TestBlockBytesPerPair bounds what a block worker allocates per document
// pair: the least of three TotalAlloc readings of PrepareIn, RunIn and
// BestAnyCriterion on a fresh workspace, at 200 and at 400 generated pages,
// give the slope per pair. The ten matrices alone would take 80 B a pair;
// RunIn holds one function group's, at most three (24 B), and the token
// table of the name functions' group at most as many cells.
func TestBlockBytesPerPair(t *testing.T) {
	const bound = bytesPerPairBound
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	extract.DefaultFeatureExtractor() // built once per process, outside the readings
	reading := func(col *corpus.Collection) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var ws Workspace
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			prep, err := r.PrepareIn(context.Background(), &ws, col)
			if err != nil {
				t.Fatal(err)
			}
			a, err := prep.RunIn(context.Background(), &ws, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.BestAnyCriterion(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	pairs := func(n int) int { return n * (n - 1) / 2 }
	small, big := reading(workspaceBlock(t, 200, 1)), reading(workspaceBlock(t, 400, 1))
	slope := float64(big-small) / float64(pairs(400)-pairs(200))
	t.Logf("200 pages: %d B, 400 pages: %d B; %.1f B per pair (bound %d)", small, big, slope, bound)
	// Under the race detector slices.Grow allocates a temporary as large as
	// the growth, so the slope is logged, not bounded.
	if slope > bound && !raceEnabled {
		t.Errorf("%.1f B allocated per document pair, want at most %d", slope, bound)
	}
}

// bytesPerPairBound is TestBlockBytesPerPair's bound, set a few percent
// above its reading.
const bytesPerPairBound = 105

// TestWorkspaceAllocationCeiling prepares and analyzes one 40-page block
// twice in one workspace: the second pass reuses what the first grew, and
// may allocate at most half the bytes of the first.
func TestWorkspaceAllocationCeiling(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	extract.DefaultFeatureExtractor() // built once per process, outside either pass
	col := workspaceBlock(t, 40, 7)
	var ws Workspace
	pass := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prep, err := r.PrepareIn(context.Background(), &ws, col)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.RunIn(context.Background(), &ws, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := pass(), pass()
	t.Logf("prepare + analyze of 40 pages: %d bytes in a new workspace, %d in the same one again", first, second)
	if second > first/2 {
		t.Errorf("the second pass allocated %d bytes, the first %d: want at most half", second, first)
	}
}

// TestRunInCanceled: RunIn on a canceled context builds no decision graph
// and returns the context's error, and so does the weighted combination of
// an analysis whose context is canceled after it ran, which would have to
// compute the matrices again.
func TestRunInCanceled(t *testing.T) {
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	prep, err := r.PrepareIn(context.Background(), &ws, workspaceBlock(t, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := prep.RunIn(ctx, &ws, 1)
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("RunIn on a canceled context = %v, %v; want no analysis and context.Canceled", a, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	if a, err = prep.RunIn(ctx, &ws, 1); err != nil {
		t.Fatal(err)
	}
	cancel()
	if res, err := a.WeightedAverageOver(nil); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("weighted combination after cancel = %v, %v; want no resolution and context.Canceled", res, err)
	}
}
