package index

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/textsim"
)

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(nil)
	docs := []struct{ name, text string }{
		{"d0", "machine learning algorithms for entity resolution"},
		{"d1", "entity resolution in relational databases"},
		{"d2", "cooking recipes for italian pasta dishes"},
		{"d3", "machine learning for cooking robots"},
	}
	for _, d := range docs {
		ix.Add(d.name, d.text)
	}
	return ix
}

func TestIndexAddAndStats(t *testing.T) {
	ix := buildTestIndex(t)
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	if len(ix.postings) == 0 {
		t.Fatal("no terms indexed")
	}
	// "entity" stems to "entiti" and appears once in d0 and in d1, nowhere else.
	want := []Posting{{DocID: 0, Freq: 1}, {DocID: 1, Freq: 1}}
	if got := ix.postings["entiti"]; !reflect.DeepEqual(got, want) {
		t.Errorf("postings(entiti) = %v, want %v", got, want)
	}
}

func TestVocabularySorted(t *testing.T) {
	ix := buildTestIndex(t)
	vocab := ix.Vocabulary()
	for i := 1; i < len(vocab); i++ {
		if vocab[i-1] >= vocab[i] {
			t.Fatalf("vocabulary not strictly sorted at %d: %q >= %q", i, vocab[i-1], vocab[i])
		}
	}
}

func TestDocVector(t *testing.T) {
	ix := buildTestIndex(t)
	v0 := ix.DocVector(0)
	if len(v0) == 0 {
		t.Fatal("empty vector for d0")
	}
	// Shared topical term present.
	if _, ok := v0["entiti"]; !ok {
		t.Error("d0 vector missing term 'entiti'")
	}
	// Out-of-range IDs give empty vectors.
	if len(ix.DocVector(-1)) != 0 || len(ix.DocVector(100)) != 0 {
		t.Error("out-of-range DocVector should be empty")
	}
}

func TestIDFOrdering(t *testing.T) {
	ix := buildTestIndex(t)
	// "cooking" (stems to "cook") appears in 2 docs; "pasta" in 1. The rare
	// term must get a higher weight at equal tf.
	wPasta := ix.weight("pasta", 1)
	wCook := ix.weight("cook", 1)
	if wPasta <= wCook {
		t.Errorf("rare term weight %v should exceed common term weight %v", wPasta, wCook)
	}
	if got := ix.weight("nonexistent", 1); got != 0 {
		t.Errorf("unknown term weight = %v, want 0", got)
	}
	if got := ix.weight("pasta", 0); got != 0 {
		t.Errorf("zero tf weight = %v, want 0", got)
	}
}

func TestCosineSimilarityOfVectors(t *testing.T) {
	ix := buildTestIndex(t)
	vecs := ix.AllVectors()
	// d0 and d1 share "entity resolution"; d0 and d2 share nothing topical.
	sim01 := textsim.Cosine(vecs[0], vecs[1])
	sim02 := textsim.Cosine(vecs[0], vecs[2])
	if sim01 <= sim02 {
		t.Errorf("related docs (%v) should beat unrelated (%v)", sim01, sim02)
	}
	if s := textsim.Cosine(vecs[0], vecs[0]); math.Abs(s-1) > 1e-9 {
		t.Errorf("self-similarity = %v, want 1", s)
	}
}

func TestVectorCacheMatchesDirect(t *testing.T) {
	ix := buildTestIndex(t)
	warm := NewVectorCache(ix)
	warm.Warm()
	lazy := NewVectorCache(ix)
	for id := 0; id < ix.Len(); id++ {
		direct := ix.DocVector(id)
		w := warm.Vector(id)
		l := lazy.Vector(id)
		if len(direct) != len(w) || len(direct) != len(l) {
			t.Fatalf("doc %d: sizes differ: direct=%d warm=%d lazy=%d", id, len(direct), len(w), len(l))
		}
		for term, dw := range direct {
			if math.Abs(w[term]-dw) > 1e-12 || math.Abs(l[term]-dw) > 1e-12 {
				t.Fatalf("doc %d term %q: weights differ", id, term)
			}
		}
	}
	// Out-of-range access is safe.
	if len(warm.Vector(-5)) != 0 || len(warm.Vector(99)) != 0 {
		t.Error("out-of-range cache access should return empty vector")
	}
}

func TestSearch(t *testing.T) {
	ix := buildTestIndex(t)
	hits := ix.Search("entity resolution", 10)
	if len(hits) < 2 {
		t.Fatalf("expected at least 2 hits, got %d", len(hits))
	}
	// Both top hits must be the ER documents.
	top2 := map[int]bool{hits[0].DocID: true, hits[1].DocID: true}
	if !top2[0] || !top2[1] {
		t.Errorf("top hits = %v, want docs 0 and 1", hits)
	}
	// Scores must be sorted decreasing.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by decreasing score")
		}
	}
	// k truncation.
	if got := ix.Search("machine learning", 1); len(got) != 1 {
		t.Errorf("k=1 returned %d hits", len(got))
	}
	// Degenerate cases.
	if got := ix.Search("entity", 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := New(nil).Search("anything", 5); got != nil {
		t.Error("empty index should return nil")
	}
	if got := ix.Search("zzzunknownzzz", 5); len(got) != 0 {
		t.Errorf("unknown term should return no hits, got %v", got)
	}
}

func TestSearchScoresBoundedProperty(t *testing.T) {
	ix := buildTestIndex(t)
	f := func(q string) bool {
		for _, h := range ix.Search(q, 10) {
			if h.Score < -1e-9 || h.Score > 1+1e-9 || math.IsNaN(h.Score) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCustomAnalyzer(t *testing.T) {
	// The zero Analyzer neither stems nor drops stopwords.
	ix := New(&analysis.Analyzer{})
	ix.Add("d", "databases running")
	if len(ix.postings["databases"]) != 1 {
		t.Error("custom analyzer not honoured: unstemmed term missing")
	}
	if len(ix.postings["databas"]) != 0 {
		t.Error("custom analyzer not honoured: stem present")
	}
}

func TestEmptyDocument(t *testing.T) {
	ix := New(nil)
	id := ix.Add("empty", "")
	if ix.Len() != 1 {
		t.Fatal("empty doc not added")
	}
	if len(ix.DocVector(id)) != 0 {
		t.Error("empty document should have empty vector")
	}
}
