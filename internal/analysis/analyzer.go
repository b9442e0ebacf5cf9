package analysis

import (
	"strings"
	"unicode/utf8"
)

// Analyzer is the text-analysis chain producing index terms from raw text:
// tokenize → lower-case → stopword removal → Porter stemming → minimum term
// length. Standard is the one chain the framework runs; the stages are
// fields so that the reference harness in the tests can switch each off.
type Analyzer struct {
	removeStopwords bool
	stem            bool
	minTokenLen     int
}

// Standard is the analyzer used across the framework: stopword removal and
// stemming on, minimum term length 2.
var Standard = &Analyzer{removeStopwords: true, stem: true, minTokenLen: 2}

// Analyze runs the chain once over text and returns both views of it the
// framework consumes: every token lower-cased, in document order (what the
// dictionary matchers read), and the index terms the chain derives from
// them (duplicates preserved — term frequency matters). The strings are
// substrings of one lower-cased copy of text wherever stemming allows.
func (a *Analyzer) Analyze(text string) (lower, terms []string) {
	// Lower-casing maps runes one to one and never turns a letter or digit
	// into a separator or back (TestLowerPreservesTokenRunes), so the tokens
	// of the lowered text are the lowered tokens of the text.
	lower = appendTokens(make([]string, 0, len(text)/6+1), strings.ToLower(text))
	terms = make([]string, 0, len(lower))
	for _, t := range lower {
		if a.removeStopwords && IsStopword(t) {
			continue
		}
		if a.stem {
			t = PorterStem(t)
		}
		if utf8.RuneCountInString(t) < a.minTokenLen {
			continue
		}
		terms = append(terms, t)
	}
	return lower, terms
}

// Terms runs the full chain on text and returns the resulting index terms
// in document order.
func (a *Analyzer) Terms(text string) []string {
	_, terms := a.Analyze(text)
	return terms
}
