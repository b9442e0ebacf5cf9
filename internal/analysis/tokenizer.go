// Package analysis implements the text-analysis chain the framework uses to
// turn raw web-page text into index terms: tokenization, lower-casing,
// stopword removal and Porter stemming. It is the stand-in for the Lucene
// analysis pipeline the paper used to build document vectors.
//
// The chain runs through a Lexicon: the table of the distinct tokens of one
// block's pages (or of one page, for Analyze), which hands out dense token
// and term IDs so that the chain runs once per distinct token and
// everything downstream of the tokenizer reads integers. Tokenize and the
// Lexicon share one scanner over the text as given; the Lexicon lower-cases
// each token as it looks it up, never the whole text.
package analysis

import (
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into word tokens. A token is a maximal run of
// letters, digits and embedded apostrophes/hyphens between letters; all
// other characters separate tokens. Tokens are returned in document order,
// preserving case (use the Analyzer for the full normalizing chain).
func Tokenize(text string) []string {
	var tokens []string
	for sc := (scanner{text: text}); sc.next(); {
		tokens = append(tokens, text[sc.start:sc.end])
	}
	return tokens
}

// scanner finds the tokens of text one at a time, as byte ranges of text:
// it decodes one rune at a time and never copies the text or a token.
type scanner struct {
	text       string
	pos        int // byte offset of the next rune to decode
	start, end int // the token next found: text[start:end]
}

// next advances to the next token and reports whether there is one.
func (s *scanner) next() bool {
	text := s.text
	start := -1      // byte offset of the open token, -1 between tokens
	prevTok := false // the previous rune was a letter or digit
	for i := s.pos; i < len(text); {
		r, size := rune(text[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(text[i:])
		}
		switch {
		case isTokenRune(r):
			if start < 0 {
				start = i
			}
			prevTok = true
		case prevTok && isJoiner(r, text[i+size:]):
			prevTok = false
		default:
			if start >= 0 {
				s.start, s.end, s.pos = start, i, i+size
				return true
			}
			prevTok = false
		}
		i += size
	}
	s.pos = len(text)
	if start >= 0 {
		s.start, s.end = start, len(text)
		return true
	}
	return false
}

// isTokenRune reports whether r can appear inside a token on its own: a
// letter or a digit. ASCII runes, nearly every rune of a page, are looked up
// in asciiTokenRune.
func isTokenRune(r rune) bool {
	if uint32(r) < utf8.RuneSelf {
		return asciiTokenRune[r]
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// asciiTokenRune is isTokenRune's predicate on the runes below
// utf8.RuneSelf, filled once from unicode.
var asciiTokenRune = func() (table [utf8.RuneSelf]bool) {
	for r := range table {
		table[r] = unicode.IsLetter(rune(r)) || unicode.IsDigit(rune(r))
	}
	return table
}()

// isJoiner reports whether r, which follows a letter or digit, joins it to
// the letter or digit that starts rest (an apostrophe or hyphen flanked by
// letters/digits), so "don't" and "state-of-the-art" survive as single
// tokens.
func isJoiner(r rune, rest string) bool {
	if r != '\'' && r != '-' && r != '’' {
		return false
	}
	next, _ := utf8.DecodeRuneInString(rest)
	return isTokenRune(next)
}
