// Package extract implements the information-extraction substrate the
// framework runs before computing similarities: dictionary-based named
// entity recognition for persons, organizations and locations, weighted
// Wikipedia-style concept extraction, and URL feature parsing. It plays the
// role of the AlchemyAPI / GATE / OpenCalais / SemanticHacker services the
// paper invoked; the paper itself characterizes the preprocessing as
// "(dictionary-based) named entity recognition techniques".
package extract

import "strings"

// Gazetteer is a dictionary of multi-word entries matched greedily (longest
// match first) against lower-cased token sequences. Entries are lower-cased
// when the gazetteer is built, so matching is case-insensitive. A Gazetteer
// is read-only after NewGazetteer.
type Gazetteer struct {
	// entries maps the first token of each entry to the candidate entries
	// starting with it, longest first.
	entries map[string][]entry
	size    int
}

type entry struct {
	tokens []string
	// canonical is tokens joined by single spaces.
	canonical string
}

// NewGazetteer builds a gazetteer from dictionary entries. Each entry is a
// (possibly multi-word) name; empty entries are ignored.
func NewGazetteer(names []string) *Gazetteer {
	g := &Gazetteer{entries: make(map[string][]entry)}
	for _, name := range names {
		tokens := strings.Fields(strings.ToLower(name))
		if len(tokens) == 0 {
			continue
		}
		g.entries[tokens[0]] = append(g.entries[tokens[0]], entry{tokens, strings.Join(tokens, " ")})
		g.size++
	}
	// Order candidates longest-first for greedy longest-match semantics.
	for _, cands := range g.entries {
		sortByLenDesc(cands)
	}
	return g
}

// Size returns the number of dictionary entries.
func (g *Gazetteer) Size() int { return g.size }

// Match is one gazetteer hit in a token sequence.
type Match struct {
	// Canonical is the matched dictionary entry joined by single spaces,
	// lower-cased.
	Canonical string
	// Start and End delimit the matched token span [Start, End).
	Start, End int
}

// FindAll scans a lower-cased token sequence (analysis.Analyzer.Analyze
// returns one) and returns all non-overlapping matches, greedily preferring
// longer matches at each position.
func (g *Gazetteer) FindAll(lower []string) []Match {
	var matches []Match
	i := 0
	for i < len(lower) {
		next := i + 1
		for _, cand := range g.entries[lower[i]] {
			if end := i + len(cand.tokens); end <= len(lower) && equalSeq(lower[i:end], cand.tokens) {
				matches = append(matches, Match{Canonical: cand.canonical, Start: i, End: end})
				next = end
				break
			}
		}
		i = next
	}
	return matches
}

// hasToken reports whether the single lower-cased token is an entry of its
// own (not merely the first word of a longer one).
func (g *Gazetteer) hasToken(tok string) bool {
	cands := g.entries[tok]
	// Longest first, so a one-token entry sorts last.
	return len(cands) > 0 && len(cands[len(cands)-1].tokens) == 1
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortByLenDesc(cands []entry) {
	// Insertion sort: candidate lists per first-token are tiny.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && len(cands[j].tokens) > len(cands[j-1].tokens); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}
