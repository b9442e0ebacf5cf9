package analysis

import (
	"strings"
	"unicode/utf8"
)

// Analyzer is a configurable text-analysis chain producing index terms from
// raw text: tokenize → lower-case → (optional) stopword removal →
// (optional) Porter stemming. The zero value is not usable; construct one
// with NewAnalyzer or use the package-level Standard analyzer.
type Analyzer struct {
	removeStopwords bool
	stem            bool
	minTokenLen     int
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithoutStopwords disables stopword removal.
func WithoutStopwords() Option {
	return func(a *Analyzer) { a.removeStopwords = false }
}

// WithoutStemming disables Porter stemming.
func WithoutStemming() Option {
	return func(a *Analyzer) { a.stem = false }
}

// WithMinTokenLength drops tokens shorter than n runes after normalization.
func WithMinTokenLength(n int) Option {
	return func(a *Analyzer) { a.minTokenLen = n }
}

// NewAnalyzer returns an analyzer with the standard chain (stopword removal
// and stemming on, minimum token length 2) modified by the given options.
func NewAnalyzer(opts ...Option) *Analyzer {
	a := &Analyzer{removeStopwords: true, stem: true, minTokenLen: 2}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// Standard is the shared default analyzer used across the framework.
var Standard = NewAnalyzer()

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

// TermFreqs runs the chain and returns a term → frequency map.
func (a *Analyzer) TermFreqs(text string) map[string]int {
	freqs := make(map[string]int)
	for _, t := range a.Terms(text) {
		freqs[t]++
	}
	return freqs
}
