package index

import (
	"fmt"
	"testing"
)

func allVectorsFixture() *Index {
	ix := New(nil)
	texts := []string{
		"entity resolution over web pages with ambiguous person names",
		"the quick brown fox jumps over the lazy dog",
		"person name disambiguation clusters web pages by entity",
		"lazy evaluation of postings lists speeds up ranked retrieval",
		"",
	}
	for i, t := range texts {
		ix.Add(fmt.Sprintf("doc%d", i), t)
	}
	return ix
}

// TestAllVectorsMatchesDocVector pins the bulk path to the per-document
// reference: same supports, same weights.
func TestAllVectorsMatchesDocVector(t *testing.T) {
	ix := allVectorsFixture()
	all := ix.AllVectors()
	if len(all) != ix.Len() {
		t.Fatalf("AllVectors len %d, want %d", len(all), ix.Len())
	}
	for id := 0; id < ix.Len(); id++ {
		ref := ix.DocVector(id)
		if len(all[id]) != len(ref) {
			t.Errorf("doc %d: support %d, want %d", id, len(all[id]), len(ref))
		}
		for term, w := range ref {
			if all[id][term] != w {
				t.Errorf("doc %d term %q: %v, want %v", id, term, all[id][term], w)
			}
		}
	}
}

func TestDocNormsMatchDocVector(t *testing.T) {
	ix := allVectorsFixture()
	norms := ix.docNorms()
	for id := 0; id < ix.Len(); id++ {
		want := ix.DocVector(id).Norm()
		if diff := norms[id] - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("doc %d: norm %v, want %v", id, norms[id], want)
		}
	}
}

func TestWarmUsesAllVectors(t *testing.T) {
	ix := allVectorsFixture()
	c := NewVectorCache(ix)
	c.Warm()
	for id := 0; id < ix.Len(); id++ {
		ref := ix.DocVector(id)
		got := c.Vector(id)
		if len(got) != len(ref) {
			t.Fatalf("doc %d: cached support %d, want %d", id, len(got), len(ref))
		}
		for term, w := range ref {
			if got[term] != w {
				t.Errorf("doc %d term %q: %v, want %v", id, term, got[term], w)
			}
		}
	}
}
