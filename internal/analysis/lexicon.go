package analysis

import (
	"strings"
	"unicode/utf8"
)

// Lexicon is the table of the distinct tokens of the texts fed to it — the
// pages of one block, or one page. A token occurrence costs one map lookup;
// what the chain derives from a token (stopword?, stem, minimum length →
// index term) is computed once, when the token is first seen. Consumers
// read integers: a page is a []int32 of token IDs, and per-token or
// per-term facts of their own live in slices that grow with Tokens and
// Terms, whose IDs are dense and assigned in first-seen order.
//
// A Lexicon belongs to the call that created it: it is not safe for
// concurrent use, and nothing keeps one beyond the block (or page) it was
// built for.
type Lexicon struct {
	chain *Analyzer
	ids   map[string]int32 // lower-cased token → token ID
	terms map[string]int32 // index term → term ID

	// Tokens maps a token ID to the lower-cased token.
	Tokens []string
	// TermOf maps a token ID to the ID of the index term the chain derives
	// from the token, -1 where the chain drops it.
	TermOf []int32
	// Terms maps a term ID to the index term.
	Terms []string

	page []string // scratch: the tokens of the text being added
}

// NewLexicon returns an empty lexicon over a's chain.
func (a *Analyzer) NewLexicon() *Lexicon {
	return &Lexicon{chain: a, ids: make(map[string]int32), terms: make(map[string]int32)}
}

// AppendIDs tokenizes text and appends the IDs of its lower-cased tokens,
// in document order, to dst.
func (lx *Lexicon) AppendIDs(dst []int32, text string) []int32 {
	// Lower-casing maps runes one to one and never turns a letter or digit
	// into a separator or back (TestLowerPreservesTokenRunes), so the tokens
	// of the lowered text are the lowered tokens of the text.
	lx.page = appendTokens(lx.page[:0], strings.ToLower(text))
	for _, tok := range lx.page {
		id, ok := lx.ids[tok]
		if !ok {
			// The table must not pin the page's lower-cased copy.
			tok = strings.Clone(tok)
			id = int32(len(lx.Tokens))
			lx.ids[tok] = id
			lx.Tokens = append(lx.Tokens, tok)
			lx.TermOf = append(lx.TermOf, lx.termOf(tok))
		}
		dst = append(dst, id)
	}
	return dst
}

// termOf runs the chain on a new token.
func (lx *Lexicon) termOf(t string) int32 {
	a := lx.chain
	if a.removeStopwords && IsStopword(t) {
		return -1
	}
	if a.stem {
		t = PorterStem(t)
	}
	if utf8.RuneCountInString(t) < a.minTokenLen {
		return -1
	}
	id, ok := lx.terms[t]
	if !ok {
		id = int32(len(lx.Terms))
		lx.terms[t] = id
		lx.Terms = append(lx.Terms, t)
	}
	return id
}
