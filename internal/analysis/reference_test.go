package analysis

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// referenceTokenize is the rune-slice tokenizer Tokenize replaced: it
// copies the text into a []rune and every token back into a string. It is
// kept as the specification the streaming tokenizer is tested against.
func referenceTokenize(text string) []string {
	var tokens []string
	runes := []rune(text)
	i := 0
	for i < len(runes) {
		if !isTokenRune(runes[i]) {
			i++
			continue
		}
		start := i
		for i < len(runes) && (isTokenRune(runes[i]) || referenceIsJoiner(runes, i)) {
			i++
		}
		tokens = append(tokens, string(runes[start:i]))
	}
	return tokens
}

func referenceIsJoiner(runes []rune, i int) bool {
	r := runes[i]
	if r != '\'' && r != '-' && r != '’' {
		return false
	}
	if i == 0 || i+1 >= len(runes) {
		return false
	}
	return isTokenRune(runes[i-1]) && isTokenRune(runes[i+1])
}

// referenceTerms is the chain Analyzer.Terms ran before the single pass:
// tokenize, lower-case each token, drop stopwords, stem, drop short terms.
func referenceTerms(a *Analyzer, text string) []string {
	var out []string
	for _, tok := range referenceTokenize(text) {
		t := strings.ToLower(tok)
		if a.removeStopwords && IsStopword(t) {
			continue
		}
		if a.stem {
			t = PorterStem(t)
		}
		if len([]rune(t)) < a.minTokenLen {
			continue
		}
		out = append(out, t)
	}
	return out
}

// tokenizerSeeds are the inputs the table test and the fuzz target share:
// invalid UTF-8, every joiner in leading, trailing and doubled position,
// digits and non-ASCII letters.
var tokenizerSeeds = []string{
	"",
	"hello, world!",
	"The Databases are RUNNING quickly",
	"\xff\xfebroken\x80utf8\xc3",
	"a\xffb ’\xe2\x80 c",
	"don’t O’Brien ’lead trail’ dou’’ble",
	"-lead trail- dou--ble a-b-c -",
	"'lead trail' dou''ble rock'n'roll '",
	"a-'b 4-5 x’9 -’-",
	"page 42 of 100, IPv6 C3PO ٣٤ ४२",
	"café ÅNGSTRÖM İstanbul ΣΊΣΥΦΟΣ straße ǅ",
	"日本語 テキスト 한국어",
	"� literal replacement �",
}

func checkAgainstReference(t *testing.T, text string) {
	t.Helper()
	want := referenceTokenize(text)
	if got := Tokenize(text); !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize(%q) = %q, reference %q", text, got, want)
	}
	for i := range want {
		want[i] = strings.ToLower(want[i])
	}
	for _, a := range []*Analyzer{Standard, NewAnalyzer(WithoutStopwords(), WithoutStemming(), WithMinTokenLength(3))} {
		lower, terms := a.Analyze(text)
		if len(lower)+len(want) > 0 && !reflect.DeepEqual(lower, want) {
			t.Errorf("Analyze(%q) lower = %q, reference %q", text, lower, want)
		}
		wantTerms := referenceTerms(a, text)
		if len(terms)+len(wantTerms) > 0 && !reflect.DeepEqual(terms, wantTerms) {
			t.Errorf("Analyze(%q) terms = %q, reference %q", text, terms, wantTerms)
		}
		if got := a.Terms(text); !reflect.DeepEqual(got, terms) {
			t.Errorf("Terms(%q) = %q, Analyze terms %q", text, got, terms)
		}
	}
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, text := range tokenizerSeeds {
		checkAgainstReference(t, text)
	}
}

func FuzzTokenize(f *testing.F) {
	for _, text := range tokenizerSeeds {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstReference(t, text)
	})
}

// checkLexiconAgainstReference feeds texts, in order, to one lexicon per
// chain and checks that every text's token and term IDs map back to exactly
// the reference chain's lower-cased tokens and terms, whatever the lexicon
// had already seen, and that equal strings share one ID.
func checkLexiconAgainstReference(t *testing.T, texts ...string) {
	t.Helper()
	for _, a := range []*Analyzer{Standard, NewAnalyzer(WithoutStopwords(), WithoutStemming(), WithMinTokenLength(3))} {
		lx := a.NewLexicon()
		var ids []int32
		for _, text := range texts {
			ids = lx.AppendIDs(ids[:0], text)
			var lower, terms []string
			for _, id := range ids {
				lower = append(lower, lx.Tokens[id])
				if term := lx.TermOf[id]; term >= 0 {
					terms = append(terms, lx.Terms[term])
				}
			}
			var want []string
			for _, tok := range referenceTokenize(text) {
				want = append(want, strings.ToLower(tok))
			}
			if !reflect.DeepEqual(lower, want) {
				t.Errorf("lexicon tokens of %q = %q, reference %q", text, lower, want)
			}
			if wantTerms := referenceTerms(a, text); !reflect.DeepEqual(terms, wantTerms) {
				t.Errorf("lexicon terms of %q = %q, reference %q", text, terms, wantTerms)
			}
		}
		if len(lx.TermOf) != len(lx.Tokens) {
			t.Fatalf("TermOf has %d entries for %d tokens", len(lx.TermOf), len(lx.Tokens))
		}
		for name, table := range map[string][]string{"Tokens": lx.Tokens, "Terms": lx.Terms} {
			seen := map[string]bool{}
			for _, s := range table {
				if seen[s] {
					t.Errorf("%s holds %q twice", name, s)
				}
				seen[s] = true
			}
		}
	}
}

func TestLexiconMatchesReference(t *testing.T) {
	checkLexiconAgainstReference(t, tokenizerSeeds...)
}

func FuzzLexiconAnalyze(f *testing.F) {
	for i, text := range tokenizerSeeds {
		f.Add(text, tokenizerSeeds[(i+1)%len(tokenizerSeeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkLexiconAgainstReference(t, a, b, a)
	})
}

// TestLowerPreservesTokenRunes pins the property the Lexicon relies on to
// lower-case each token of the text as given, so that its tokens are those
// of the lower-cased text: over every rune, lower-casing keeps letters and
// digits letters and digits, keeps separators separators, and produces a
// joiner only from that joiner.
func TestLowerPreservesTokenRunes(t *testing.T) {
	joiner := func(r rune) bool { return r == '\'' || r == '-' || r == '’' }
	for r := rune(0); r <= unicode.MaxRune; r++ {
		l := unicode.ToLower(r)
		if isTokenRune(r) != isTokenRune(l) {
			t.Errorf("%U: token rune %v, lower-cased %U token rune %v", r, isTokenRune(r), l, isTokenRune(l))
		}
		if joiner(l) && l != r {
			t.Errorf("%U lower-cases to joiner %U", r, l)
		}
	}
}

// Non-standard chains. No caller outside the tests builds one;
// checkAgainstReference runs one so that every branch of Analyze is compared
// with referenceTerms.

// Option configures an Analyzer.
type Option func(*Analyzer)

// NewAnalyzer returns Standard's chain modified by the given options.
func NewAnalyzer(opts ...Option) *Analyzer {
	a := &Analyzer{removeStopwords: true, stem: true, minTokenLen: 2}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

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
