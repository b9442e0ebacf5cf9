package extract

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestFeatureExtractorFullBundle(t *testing.T) {
	fe := NewFeatureExtractor(nil, nil)
	text := "John Smith is a professor at Stanford University in San Francisco. " +
		"Smith works on machine learning and clustering with Mary Johnson. " +
		"His research covers supervised learning and bayesian inference."
	f := fe.Extract(text, "http://cs.stanford.edu/~smith", "smith")

	if f.MostFrequentName == "" {
		t.Error("MostFrequentName empty")
	}
	if len(f.ConceptVector) == 0 {
		t.Error("ConceptVector empty for topical text")
	}
	for i, c := range f.ConceptVector {
		if i > 0 && f.ConceptVector[i-1].Name >= c.Name {
			t.Errorf("ConceptVector not in label order at %d: %q after %q", i, c.Name, f.ConceptVector[i-1].Name)
		}
		if c.Weight <= 0 {
			t.Errorf("ConceptVector[%q] = %v, want a positive weight", c.Name, c.Weight)
		}
	}
	if len(f.Concepts) == 0 {
		t.Error("Concepts empty")
	}
	if len(f.Organizations) == 0 {
		t.Error("Organizations empty")
	}
	if f.URL.Host != "cs.stanford.edu" {
		t.Errorf("URL host = %q", f.URL.Host)
	}
	// Query-name mentions must be excluded from OtherPersons.
	for _, p := range f.OtherPersons {
		if p == "smith" || p == "john smith" {
			t.Errorf("query name leaked into OtherPersons: %v", f.OtherPersons)
		}
	}
	// Mary Johnson must remain.
	found := false
	for _, p := range f.OtherPersons {
		if p == "mary johnson" {
			found = true
		}
	}
	if !found {
		t.Errorf("co-occurring person missing: %v", f.OtherPersons)
	}
}

func TestClosestName(t *testing.T) {
	fe := NewFeatureExtractor(nil, nil)
	text := "Mary Cohen and David Cohen attended. The paper cites Andrew McCallum."
	f := fe.Extract(text, "", "david cohen")
	if f.ClosestName != "david cohen" {
		t.Errorf("ClosestName = %q, want david cohen", f.ClosestName)
	}
}

func TestFeatureExtractorEmptyText(t *testing.T) {
	fe := NewFeatureExtractor(nil, nil)
	f := fe.Extract("", "", "smith")
	if f.MostFrequentName != "" || f.ClosestName != "" {
		t.Error("names from empty text")
	}
	if len(f.OtherPersons) != 0 || len(f.Organizations) != 0 {
		t.Error("entities from empty text")
	}
	if f.ConceptVector != nil {
		t.Error("concepts from empty text")
	}
}

func TestContainsToken(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"john smith", "smith", true},
		{"smith", "john smith", true},
		{"mary cohen", "smith", false},
		{"", "smith", false},
		{"", "", false},
	}
	for _, tc := range cases {
		if got := containsToken(tc.a, tc.b); got != tc.want {
			t.Errorf("containsToken(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestPagesKeepTheLexiconUpToTheCap: Reset keeps the lexicon, its token IDs
// and the per-token tables from block to block until the lexicon holds
// more than LexiconCap tokens, and then starts them over. Before and after
// the restart, a page's features under a new query equal those of a fresh
// one-page extraction.
func TestPagesKeepTheLexiconUpToTheCap(t *testing.T) {
	fe := NewFeatureExtractor(nil, nil)
	page := "John Smith is a professor at Stanford University. Smith works on machine learning with Mary Johnson."
	url := "http://cs.stanford.edu/~smith"
	p := fe.NewPages("smith")
	p.Extract(page, url)
	kept := len(p.Lexicon.Tokens)
	p.Reset("johnson")
	if len(p.Lexicon.Tokens) != kept {
		t.Fatalf("Reset below the cap left %d tokens of %d", len(p.Lexicon.Tokens), kept)
	}
	if got, want := p.Extract(page, url), fe.Extract(page, url, "johnson"); !reflect.DeepEqual(got, want) {
		t.Fatalf("a kept lexicon extracts %+v, a fresh one %+v", got, want)
	}
	if len(p.Lexicon.Tokens) != kept {
		t.Fatalf("a page read before grew the lexicon from %d to %d tokens", kept, len(p.Lexicon.Tokens))
	}

	var big strings.Builder
	for i := 0; i <= LexiconCap; i++ {
		fmt.Fprintf(&big, "w%d ", i)
	}
	p.Extract(big.String(), url)
	if len(p.Lexicon.Tokens) <= LexiconCap {
		t.Fatalf("the lexicon holds %d tokens after a page of %d distinct ones", len(p.Lexicon.Tokens), LexiconCap+1)
	}
	p.Reset("mary")
	if len(p.Lexicon.Tokens) != 0 {
		t.Fatalf("Reset past the cap left %d tokens", len(p.Lexicon.Tokens))
	}
	if got, want := p.Extract(page, url), fe.Extract(page, url, "mary"); !reflect.DeepEqual(got, want) {
		t.Fatalf("a restarted lexicon extracts %+v, a fresh one %+v", got, want)
	}
}
