package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestMongeElkan(t *testing.T) {
	if got := MongeElkan(nil, nil, JaroWinkler); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := MongeElkan([]string{"a"}, nil, JaroWinkler); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
	// Identical token sets in different order are a perfect match.
	a := []string{"john", "smith"}
	b := []string{"smith", "john"}
	if got := MongeElkan(a, b, JaroWinkler); math.Abs(got-1) > 1e-12 {
		t.Errorf("reordered identical = %v, want 1", got)
	}
	// Partial match scores strictly between 0 and 1.
	got := MongeElkan([]string{"jon", "smith"}, []string{"john", "smyth"}, JaroWinkler)
	if got <= 0.5 || got >= 1 {
		t.Errorf("近-match = %v, want in (0.5, 1)", got)
	}
}

func TestMongeElkanSymmetric(t *testing.T) {
	a := []string{"alpha", "beta", "gamma"}
	b := []string{"beta", "delta"}
	ab := MongeElkan(a, b, JaroWinkler)
	ba := MongeElkan(b, a, JaroWinkler)
	if math.Abs(ab-ba) > 1e-12 {
		t.Errorf("symmetrized Monge-Elkan differs: %v vs %v", ab, ba)
	}
}

func ExampleNameSimilarity() {
	// Robust to token order and punctuation.
	fmt.Printf("%.2f\n", NameSimilarity("Smith, John", "john smith"))
	// Output: 1.00
}

func TestNameSimilarity(t *testing.T) {
	// Identical names after normalization.
	if got := NameSimilarity("Smith, John", "john smith"); math.Abs(got-1) > 1e-9 {
		t.Errorf("normalized identical = %v, want 1", got)
	}
	if got := NameSimilarity("J. Smith", "j smith"); math.Abs(got-1) > 1e-9 {
		t.Errorf("dot stripped = %v, want 1", got)
	}
	// Near names outrank unrelated names.
	near := NameSimilarity("Andrew McCallum", "Andrew MacCallum")
	far := NameSimilarity("Andrew McCallum", "Zoltan Miklos")
	if near <= far {
		t.Errorf("near=%v should exceed far=%v", near, far)
	}
	if near < 0.8 {
		t.Errorf("near-identical name = %v, want >= 0.8", near)
	}
}

func TestNameSimilarityBoundsAndSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		s := NameSimilarity(a, b)
		if s < 0 || s > 1 {
			return false
		}
		return math.Abs(s-NameSimilarity(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  John   Smith ", "john smith"},
		{"Smith, John", "smith john"},
		{"J.R. Smith", "j r smith"},
		{"", ""},
	}
	for _, tc := range cases {
		if got := normalizeName(tc.in); got != tc.want {
			t.Errorf("normalizeName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestNormalizeNameMatchesComposition pins normalizeName's one pass to the
// composition it replaced — ToLower(TrimSpace), two ReplaceAlls, Fields
// and Join — on 50,000 random strings over upper- and lower-case letters
// of several scripts, every rune unicode.IsSpace accepts, runs of commas
// and periods, and invalid UTF-8, which strings.ToLower turns into U+FFFD.
func TestNormalizeNameMatchesComposition(t *testing.T) {
	composed := func(s string) string {
		s = strings.ToLower(strings.TrimSpace(s))
		s = strings.ReplaceAll(s, ",", " ")
		s = strings.ReplaceAll(s, ".", " ")
		return strings.Join(strings.Fields(s), " ")
	}
	var spaces []string
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.IsSpace(r) {
			spaces = append(spaces, string(r))
		}
	}
	pieces := append(spaces, "a", "Z", "smith", "John", "É", "é", "İ", "Σ", "ς", "王", "Ⱥ", "\ufffd",
		",", ".", ",.", "..", "\xff", "\xe2\x80", "\xc3", "0", "-", "'")
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 50_000; trial++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := sb.String()
		if got, want := normalizeName(s), composed(s); got != want {
			t.Fatalf("normalizeName(%q) = %q, composition %q", s, got, want)
		}
	}
}
