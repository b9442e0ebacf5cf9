package analysis

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
// them (duplicates preserved — term frequency matters). It is the string
// view of a one-page Lexicon, so it cannot drift from what a block's
// lexicon derives.
func (a *Analyzer) Analyze(text string) (lower, terms []string) {
	lx := a.NewLexicon()
	ids := lx.AppendIDs(make([]int32, 0, len(text)/6+1), text)
	lower = make([]string, len(ids))
	terms = make([]string, 0, len(ids))
	for i, id := range ids {
		lower[i] = lx.Tokens[id]
		if t := lx.TermOf[id]; t >= 0 {
			terms = append(terms, lx.Terms[t])
		}
	}
	return lower, terms
}

// Terms runs the full chain on text and returns the resulting index terms
// in document order.
func (a *Analyzer) Terms(text string) []string {
	_, terms := a.Analyze(text)
	return terms
}
