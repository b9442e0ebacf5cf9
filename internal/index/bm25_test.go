package index

import (
	"math"
	"testing"
)

func TestSearchBM25Basic(t *testing.T) {
	ix := buildTestIndex(t)
	hits := ix.SearchBM25("entity resolution", 10, DefaultBM25)
	if len(hits) < 2 {
		t.Fatalf("hits = %v", hits)
	}
	top2 := map[int]bool{hits[0].DocID: true, hits[1].DocID: true}
	if !top2[0] || !top2[1] {
		t.Errorf("top hits = %v, want docs 0 and 1", hits)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted")
		}
	}
	for _, h := range hits {
		if h.Score <= 0 || math.IsNaN(h.Score) {
			t.Errorf("score %v invalid", h.Score)
		}
	}
}

func TestSearchBM25Degenerate(t *testing.T) {
	ix := buildTestIndex(t)
	if got := ix.SearchBM25("entity", 0, DefaultBM25); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := New(nil).SearchBM25("x", 5, DefaultBM25); got != nil {
		t.Error("empty index should return nil")
	}
	if got := ix.SearchBM25("zzzunknown", 5, DefaultBM25); len(got) != 0 {
		t.Errorf("unknown term hits = %v", got)
	}
	// Zero params fall back to defaults.
	hits := ix.SearchBM25("machine learning", 5, BM25Params{})
	if len(hits) == 0 {
		t.Error("zero params should fall back to defaults")
	}
}

func TestBM25TermFrequencySaturation(t *testing.T) {
	// With k1 saturation, 10 occurrences must score less than 10× one
	// occurrence.
	ix := New(nil)
	ix.Add("once", "cheese bread")
	ix.Add("many", "cheese cheese cheese cheese cheese cheese cheese cheese cheese cheese bread")
	ix.Add("none", "water juice")
	hits := ix.SearchBM25("cheese", 3, DefaultBM25)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	var onceScore, manyScore float64
	for _, h := range hits {
		switch h.DocID { // IDs are dense, in Add order
		case 0:
			onceScore = h.Score
		case 1:
			manyScore = h.Score
		}
	}
	if manyScore <= onceScore {
		t.Errorf("more occurrences should score higher: %v <= %v", manyScore, onceScore)
	}
	if manyScore >= 10*onceScore {
		t.Errorf("BM25 should saturate: %v vs %v", manyScore, onceScore)
	}
}

func TestBM25LengthNormalization(t *testing.T) {
	// Same tf, shorter document scores higher with b > 0.
	ix := New(nil)
	ix.Add("short", "cheese bread")
	ix.Add("long", "cheese bread butter water juice apple orange grape melon banana kiwi")
	hits := ix.SearchBM25("cheese", 2, DefaultBM25)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].DocID != 0 {
		t.Errorf("short doc should rank first, got doc %d", hits[0].DocID)
	}
	// With b = 0 length normalization is off and scores tie.
	flat := ix.SearchBM25("cheese", 2, BM25Params{K1: 1.2, B: 0})
	if math.Abs(flat[0].Score-flat[1].Score) > 1e-12 {
		t.Errorf("b=0 should ignore length: %v vs %v", flat[0].Score, flat[1].Score)
	}
}

func TestBM25RareTermsWinAtEqualTF(t *testing.T) {
	ix := New(nil)
	ix.Add("a", "cheese pickle")
	ix.Add("b", "cheese mustard")
	ix.Add("c", "cheese relish")
	// "pickle" is rarer than "cheese"; a query for both must rank doc a
	// above pure-cheese docs.
	hits := ix.SearchBM25("cheese pickle", 3, DefaultBM25)
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].DocID != 0 {
		t.Errorf("doc with the rare term should win, got doc %d", hits[0].DocID)
	}
}
