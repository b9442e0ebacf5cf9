package extract

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestGazetteerBasicMatch(t *testing.T) {
	g := NewGazetteer([]string{"stanford university", "google", "mit"})
	if g.Size() != 3 {
		t.Fatalf("Size = %d, want 3", g.Size())
	}
	matches := g.FindAll([]string{"he", "joined", "google", "after", "mit"})
	if len(matches) != 2 {
		t.Fatalf("matches = %v, want 2", matches)
	}
	if matches[0].Canonical != "google" || matches[0].Start != 2 {
		t.Errorf("first match = %+v", matches[0])
	}
	if matches[1].Canonical != "mit" || matches[1].Start != 4 {
		t.Errorf("second match = %+v", matches[1])
	}
}

func TestGazetteerLongestMatchWins(t *testing.T) {
	g := NewGazetteer([]string{"new york", "new york university", "york"})
	matches := g.FindAll([]string{"at", "new", "york", "university", "campus"})
	if len(matches) != 1 {
		t.Fatalf("matches = %v, want exactly 1", matches)
	}
	if matches[0].Canonical != "new york university" {
		t.Errorf("longest match lost: %+v", matches[0])
	}
	// Without the longer entry available, the two-token entry matches.
	matches = g.FindAll([]string{"in", "new", "york", "city"})
	if len(matches) != 1 || matches[0].Canonical != "new york" {
		t.Errorf("matches = %v, want [new york]", matches)
	}
}

func TestGazetteerNonOverlapping(t *testing.T) {
	g := NewGazetteer([]string{"a b", "b c"})
	matches := g.FindAll([]string{"a", "b", "c"})
	// Greedy: "a b" consumes tokens 0-1; token 2 alone matches nothing.
	if len(matches) != 1 || matches[0].Canonical != "a b" {
		t.Errorf("matches = %v, want [a b]", matches)
	}
}

func TestGazetteerCaseInsensitive(t *testing.T) {
	g := NewGazetteer([]string{"EPFL"})
	matches := g.FindAll([]string{"at", "epfl", "in", "lausanne"})
	if len(matches) != 1 || matches[0].Canonical != "epfl" {
		t.Errorf("matches = %v", matches)
	}
}

func TestGazetteerHasToken(t *testing.T) {
	g := NewGazetteer([]string{"stanford university", "Google", "new york", "new"})
	for tok, want := range map[string]bool{
		"google":   true,
		"new":      true,  // an entry of its own besides starting "new york"
		"stanford": false, // first word of an entry is not an entry
		"york":     false,
		"":         false,
	} {
		if got := g.hasToken(tok); got != want {
			t.Errorf("hasToken(%q) = %v, want %v", tok, got, want)
		}
	}
}

func TestGazetteerEmptyEntries(t *testing.T) {
	g := NewGazetteer([]string{"", "   ", "real entry"})
	if g.Size() != 1 {
		t.Errorf("Size = %d, want 1 (blank entries dropped)", g.Size())
	}
}

func TestGazetteerNoPanicsProperty(t *testing.T) {
	g := NewGazetteer([]string{"alpha beta", "gamma"})
	f := func(tokens []string) bool {
		matches := g.FindAll(tokens)
		// Matches must be in-range, ordered and non-overlapping.
		prevEnd := 0
		for _, m := range matches {
			if m.Start < prevEnd || m.End <= m.Start || m.End > len(tokens) {
				return false
			}
			prevEnd = m.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGazetteerDeterministic(t *testing.T) {
	names := []string{"x y z", "x y", "x"}
	g1 := NewGazetteer(names)
	g2 := NewGazetteer(names)
	tokens := []string{"x", "y", "z", "x", "y", "x"}
	if !reflect.DeepEqual(g1.FindAll(tokens), g2.FindAll(tokens)) {
		t.Error("gazetteer matching must be deterministic")
	}
	m := g1.FindAll(tokens)
	want := []string{"x y z", "x y", "x"}
	if len(m) != 3 {
		t.Fatalf("matches = %v", m)
	}
	for i, w := range want {
		if m[i].Canonical != w {
			t.Errorf("match %d = %q, want %q", i, m[i].Canonical, w)
		}
	}
}
