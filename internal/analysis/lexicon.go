package analysis

import (
	"unicode"
	"unicode/utf8"
)

// Lexicon is the table of the distinct tokens of the texts fed to it — the
// pages of the blocks one worker prepares, or one page. A text is scanned
// once as it is, and each token is lower-cased on its own into a reused
// buffer, so a token occurrence costs one map lookup and allocates nothing
// once the token has been seen; what the chain derives from a token
// (stopword?, stem, minimum length → index term) is computed once, when it
// is first seen. Consumers read integers: a page is a []int32 of token IDs,
// and per-token or per-term facts of their own live in slices that grow with
// Tokens and Terms, whose IDs are dense and assigned in first-seen order.
//
// A Lexicon belongs to one caller at a time: it is not safe for concurrent
// use. What it derives from a token does not depend on the text the token
// came from, so it may be fed block after block, its IDs staying valid and
// its tables growing with every token not seen before; Reset starts it
// over. extract.Pages keeps one across the blocks of a workspace and starts
// it over at a block boundary once it holds more than a fixed number of
// tokens (extract.LexiconCap, 16,384).
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

	lower []byte // scratch: the token being looked up, lower-cased
}

// NewLexicon returns an empty lexicon over a's chain.
func (a *Analyzer) NewLexicon() *Lexicon {
	return &Lexicon{chain: a, ids: make(map[string]int32), terms: make(map[string]int32)}
}

// Reset empties the lexicon, keeping the memory of its tables: token and
// term IDs start again from zero, and every ID handed out before is void.
func (lx *Lexicon) Reset() {
	clear(lx.ids)
	clear(lx.terms)
	lx.Tokens, lx.TermOf, lx.Terms = lx.Tokens[:0], lx.TermOf[:0], lx.Terms[:0]
}

// AppendIDs tokenizes text and appends the IDs of its lower-cased tokens,
// in document order, to dst. The text is scanned once, as it is: each token
// is lower-cased into a reused buffer, and only a token the lexicon has not
// seen is copied into a string of its own.
func (lx *Lexicon) AppendIDs(dst []int32, text string) []int32 {
	// Lower-casing maps runes one to one and never turns a letter or digit
	// into a separator or back (TestLowerPreservesTokenRunes), so the
	// lowered tokens of the text are the tokens of the lowered text.
	for sc := (scanner{text: text}); sc.next(); {
		lx.lower = appendLower(lx.lower[:0], text[sc.start:sc.end])
		id, ok := lx.ids[string(lx.lower)]
		if !ok {
			tok := string(lx.lower)
			id = int32(len(lx.Tokens))
			lx.ids[tok] = id
			lx.Tokens = append(lx.Tokens, tok)
			lx.TermOf = append(lx.TermOf, lx.termOf(tok))
		}
		dst = append(dst, id)
	}
	return dst
}

// appendLower appends tok lower-cased rune by rune, as strings.ToLower
// maps it, to dst. A token holds only letters, digits and joiners, all
// valid runes. The token is copied whole and lowered in place up to its
// first multi-byte rune; from there each rune is decoded and re-encoded.
func appendLower(dst []byte, tok string) []byte {
	start := len(dst)
	dst = append(dst, tok...)
	for i := start; i < len(dst); i++ {
		c := dst[i]
		if c >= utf8.RuneSelf {
			dst = dst[:i]
			for _, r := range tok[i-start:] {
				dst = utf8.AppendRune(dst, unicode.ToLower(r))
			}
			break
		}
		if 'A' <= c && c <= 'Z' {
			dst[i] = c + 'a' - 'A'
		}
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
