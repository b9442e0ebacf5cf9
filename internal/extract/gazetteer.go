// Package extract implements the information-extraction substrate the
// framework runs before computing similarities: dictionary-based named
// entity recognition for persons, organizations and locations, weighted
// Wikipedia-style concept extraction, and URL feature parsing. It plays the
// role of the AlchemyAPI / GATE / OpenCalais / SemanticHacker services the
// paper invoked; the paper itself characterizes the preprocessing as
// "(dictionary-based) named entity recognition techniques".
//
// The extractors are read-only dictionaries; the work happens in a Pages
// value, which walks the pages of one block as token IDs of a block-local
// analysis.Lexicon and asks the dictionaries once per distinct token.
// FeatureExtractor.Extract is the same code over a one-page block.
package extract

import (
	"slices"
	"strings"
)

// Gazetteer is a dictionary of multi-word entries matched greedily (longest
// match first) against lower-cased token sequences. Entries are lower-cased
// when the gazetteer is built, so matching is case-insensitive. A Gazetteer
// is read-only after NewGazetteer.
type Gazetteer struct {
	// entries maps the first token of each entry to the candidate entries
	// starting with it, longest first.
	entries map[string][]entry
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
	}
	// Order candidates longest-first for greedy longest-match semantics.
	for _, cands := range g.entries {
		slices.SortStableFunc(cands, func(a, b entry) int { return len(b.tokens) - len(a.tokens) })
	}
	return g
}

// gazetteerView is a Gazetteer seen through a block's lexicon: per token
// ID, the entries that start with that token, looked up once per distinct
// token (Pages.analyze). Matching then walks token IDs and compares strings
// only inside a multi-word candidate.
type gazetteerView struct {
	g     *Gazetteer
	cands [][]entry
}

// match is one gazetteer hit: the entry's canonical form (its tokens
// joined by single spaces) and the matched token span [start, end).
type match struct {
	canonical  string
	start, end int
}

// appendMatches scans a page given as token IDs and appends all
// non-overlapping matches to dst, greedily preferring longer matches at
// each position.
func (v *gazetteerView) appendMatches(dst []match, toks []int32, tokens []string) []match {
	for i := 0; i < len(toks); {
		next := i + 1
	candidates:
		for _, cand := range v.cands[toks[i]] {
			end := i + len(cand.tokens)
			if end > len(toks) {
				continue
			}
			for k := i + 1; k < end; k++ {
				if tokens[toks[k]] != cand.tokens[k-i] {
					continue candidates
				}
			}
			dst = append(dst, match{cand.canonical, i, end})
			next = end
			break
		}
		i = next
	}
	return dst
}

// hasToken reports whether token id is an entry of its own (not merely the
// first word of a longer one).
func (v *gazetteerView) hasToken(id int32) bool {
	cands := v.cands[id]
	// Longest first, so a one-token entry sorts last.
	return len(cands) > 0 && len(cands[len(cands)-1].tokens) == 1
}
