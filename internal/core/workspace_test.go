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
	for id, m := range fresh.Matrices {
		got := prep.Matrices[id]
		if got.Len() != m.Len() || !slices.EqualFunc(got.Values(), m.Values(), sameBits) {
			t.Fatalf("%s: matrix %s differs from fresh memory", label, id)
		}
	}
	a, err := prep.RunIn(ctx, ws, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Graphs) != len(freshRun.Graphs) {
		t.Fatalf("%s: %d graphs, fresh %d", label, len(a.Graphs), len(freshRun.Graphs))
	}
	for g, dg := range a.Graphs {
		w := freshRun.Graphs[g]
		if !sameBits(dg.Threshold, w.Threshold) || !sameBits(dg.TrainAccuracy, w.TrainAccuracy) ||
			!sameBits(dg.Calibration, w.Calibration) || !reflect.DeepEqual(dg.Estimate, w.Estimate) ||
			!slices.Equal(dg.Graph.ConnectedComponents(), w.Graph.ConnectedComponents()) {
			t.Fatalf("%s: graph %s differs from fresh memory", label, dg.Label())
		}
	}
	got, err := a.BestAnyCriterion()
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != want.Source || !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("%s: resolved %s %v, fresh memory %s %v", label, got.Source, got.Labels, want.Source, want.Labels)
	}
	return got
}

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
// and returns the context's error.
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
}
