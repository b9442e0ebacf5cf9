package simfn

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
)

// benchShapes are the two corpus shapes the repo benchmark runs: the
// paper's WWW'05 profile and the "6k" delta corpus.
var benchShapes = []struct {
	name string
	cfg  corpus.CollectionConfig
}{
	{"www05", corpus.CollectionConfig{NumPersonas: 13, Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25}},
	{"6k", corpus.CollectionConfig{NumPersonas: 4, Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2}},
}

func shapedCollection(tb testing.TB, cfg corpus.CollectionConfig, n int, seed int64) *corpus.Collection {
	tb.Helper()
	cfg.Name, cfg.NumDocs, cfg.Seed = "mitchell", n, seed
	col, err := corpus.GenerateCollection(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return col
}

// handBuiltCollection holds the pages generated text never produces. The
// dictionaries are extract's defaults: "mit", "acm", "intel" and "epfl" are
// organizations whose strings are also their own index terms (one shared
// Vocab ID, whichever is interned first), "carnegie mellon" and "mexico"
// open multi-word entries the page ends inside, "mark" and "scott" are both
// first names and surnames.
func handBuiltCollection() *corpus.Collection {
	texts := []string{
		"",
		"the and of with http www",
		"café ÅNGSTRÖM 42 ٣٤ İstanbul x9 C3PO 2010 café",
		"don't state-of-the-art O’Brien rock'n'roll -lead trail-",
		"zebra yak xylophone apple banana apple", // terms far from lexicographic order
		"He left EPFL for Carnegie Mellon",
		"From New York to Mexico",
		"Mark Scott and Scott Mark met Mark. Scott wrote to John Mitchell; Mitchell replied.",
		"acm mit intel ieee",                                           // terms first …
		"She joined MIT and Intel, then the ACM and IEEE in Lausanne.", // … then the organizations of the same strings
		"Machine learning: a classifier, a kernel and a support vector machine for entity resolution.",
		"yak zebra apple",
		"no concept here, only James Mitchell of Google and Tom Mitchell of Stanford University",
	}
	col := &corpus.Collection{Name: "Mitchell", NumPersonas: 2}
	for i, text := range texts {
		col.Docs = append(col.Docs, corpus.Document{
			ID: i, Text: text, PersonaID: i % 2,
			URL: fmt.Sprintf("http://host%d.example.org/~mitchell/%d.html", i%3, i),
		})
	}
	// Duplicate pages: nothing of the second copy is new to the lexicon.
	col.Docs = append(col.Docs, col.Docs[4], col.Docs[9], col.Docs[0])
	return col
}

// requireSameBlock compares a prepared block with the reference: the whole
// value by reflect.DeepEqual — Vocab and the packed vectors' unexported
// pack-time sums included — and every weight by its bits, which DeepEqual's
// == on floats would let differ between 0 and -0.
func requireSameBlock(t *testing.T, label string, got, want *Block) {
	t.Helper()
	if len(got.Docs) != len(want.Docs) {
		t.Fatalf("%s: %d docs, reference %d", label, len(got.Docs), len(want.Docs))
	}
	for i := range want.Docs {
		g, w := &got.Docs[i], &want.Docs[i]
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s doc %d:\n got %+v\nwant %+v\n got packed %+v\nwant packed %+v", label, i, *g, *w, g.Packed, w.Packed)
		}
		for k, x := range w.Packed.Weights {
			if math.Float64bits(g.Packed.Weights[k]) != math.Float64bits(x) {
				t.Fatalf("%s doc %d term weight %d: %x, reference %x", label, i, k, g.Packed.Weights[k], x)
			}
		}
		for k, x := range w.ConceptPacked.Weights {
			if math.Float64bits(g.ConceptPacked.Weights[k]) != math.Float64bits(x) {
				t.Fatalf("%s doc %d concept weight %d: %x, reference %x", label, i, k, g.ConceptPacked.Weights[k], x)
			}
		}
		terms := g.Packed.Unpack(got.Vocab)
		for term, x := range w.Packed.Unpack(want.Vocab) {
			if y, ok := terms[term]; !ok || math.Float64bits(y) != math.Float64bits(x) {
				t.Fatalf("%s doc %d term %q: %x (present %v), reference %x", label, i, term, y, ok, x)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: blocks differ outside their documents:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestPrepareKernelMatchesReference pins the lexicon kernel to the string
// form of block preparation, bit for bit, on generated blocks of both
// benchmark shapes and on hand-built pages. It is what fixes the ID-order
// contract: replace the lexicographic rank in PrepareBlockCtx by first-seen
// order and Vocab IDs, and with them every packed vector, move.
func TestPrepareKernelMatchesReference(t *testing.T) {
	type input struct {
		label string
		col   *corpus.Collection
	}
	inputs := []input{{"hand-built", handBuiltCollection()}}
	for _, shape := range benchShapes {
		for _, n := range []int{0, 1, 2, 42, 100, 150} {
			for seed := int64(1); seed <= 3; seed++ {
				if n == 0 && seed > 1 {
					continue
				}
				// The generator wants a page per persona; the small blocks
				// are the first pages of a larger one.
				col := shapedCollection(t, shape.cfg, max(n, 42), seed)
				col.Docs = col.Docs[:n]
				inputs = append(inputs, input{fmt.Sprintf("%s/n=%d/seed=%d", shape.name, n, seed), col})
			}
		}
	}
	fe := extract.DefaultFeatureExtractor()
	for _, in := range inputs {
		got, err := PrepareBlockCtx(context.Background(), in.col, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBlock(t, in.label, got, prepareBlockReference(in.col, fe))
	}

	// Eight blocks prepared at once over the one shared extractor (run under
	// -race): nothing of a lexicon may leak into the extractor or across
	// calls.
	forceParallel(t)
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		in := inputs[(k*5)%len(inputs)]
		want := prepareBlockReference(in.col, fe)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := PrepareBlockCtx(context.Background(), in.col, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s prepared concurrently differs from the reference", in.label)
			}
		}()
	}
	wg.Wait()
}
