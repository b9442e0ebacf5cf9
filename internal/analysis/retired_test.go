package analysis

import "strings"

// Retired library surface: nothing outside this package's tests has called
// these (PR 19 cut the similarity stack down to what Table I needs). They
// live here only so TestTermFreqs and TestSentences keep running; delete a
// declaration together with its test, never call one from non-test code.

// TermFreqs runs the chain and returns a term → frequency map.
func (a *Analyzer) TermFreqs(text string) map[string]int {
	freqs := make(map[string]int)
	for _, t := range a.Terms(text) {
		freqs[t]++
	}
	return freqs
}

// Sentences splits text into rough sentences on terminal punctuation.
func Sentences(text string) []string {
	var out []string
	var b strings.Builder
	for _, r := range text {
		b.WriteRune(r)
		if r == '.' || r == '!' || r == '?' {
			s := strings.TrimSpace(b.String())
			if s != "" {
				out = append(out, s)
			}
			b.Reset()
		}
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}
