package analysis

import (
	"reflect"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{"empty", "", nil},
		{"simple", "hello world", []string{"hello", "world"}},
		{"punctuation", "hello, world!", []string{"hello", "world"}},
		{"apostrophe", "don't stop", []string{"don't", "stop"}},
		{"hyphen", "state-of-the-art system", []string{"state-of-the-art", "system"}},
		{"leading-hyphen", "-dash start", []string{"dash", "start"}},
		{"trailing-apostrophe", "dogs' toys", []string{"dogs", "toys"}},
		{"digits", "page 42 of 100", []string{"page", "42", "of", "100"}},
		{"mixed", "IPv6 and C3PO", []string{"IPv6", "and", "C3PO"}},
		{"unicode", "café ångström", []string{"café", "ångström"}},
		{"urlish", "http://example.com/a-b", []string{"http", "example", "com", "a-b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Tokenize(tc.in); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestTokenizeNoEmptyTokensProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "http", "www"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"database", "entity", "resolution"} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
	if len(englishStopwords) < 100 {
		t.Errorf("stopword list suspiciously small: %d", len(englishStopwords))
	}
}

func TestAnalyzerTerms(t *testing.T) {
	got := Standard.Terms("The databases are running quickly!")
	// "the", "are" are stopwords; remaining stems: databas, run, quickli.
	want := []string{"databas", "run", "quickli"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerOptions(t *testing.T) {
	noStem := NewAnalyzer(WithoutStemming())
	got := noStem.Terms("running databases")
	want := []string{"running", "databases"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("no-stem Terms = %v, want %v", got, want)
	}

	withStops := NewAnalyzer(WithoutStopwords(), WithoutStemming())
	got = withStops.Terms("the cat")
	want = []string{"the", "cat"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("with-stopwords Terms = %v, want %v", got, want)
	}

	longOnly := NewAnalyzer(WithMinTokenLength(5), WithoutStemming())
	got = longOnly.Terms("tiny enormous words")
	want = []string{"enormous", "words"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("min-length Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerTermsNeverContainStopwordsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, term := range Standard.Terms(s) {
			// Stopwords are filtered before stemming, so a stemmed term may
			// coincide with a stopword; check the invariant pre-stem.
			_ = term
		}
		// Use a no-stem analyzer for the precise invariant.
		a := NewAnalyzer(WithoutStemming())
		for _, term := range a.Terms(s) {
			if IsStopword(term) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestASCIITokenRuneTable pins isTokenRune's ASCII fast path to the
// predicate it stands for, on every rune below utf8.RuneSelf.
func TestASCIITokenRuneTable(t *testing.T) {
	for r := rune(0); r < utf8.RuneSelf; r++ {
		if got, want := isTokenRune(r), unicode.IsLetter(r) || unicode.IsDigit(r); got != want {
			t.Errorf("isTokenRune(%q) = %v, unicode says %v", r, got, want)
		}
	}
}
