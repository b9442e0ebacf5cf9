package textsim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// ExampleLevenshtein is in-package, unlike example_test.go: Levenshtein is
// declared in retired_test.go, which the external test package cannot see
// under every loader (erlint's reports it undefined).
func ExampleLevenshtein() {
	fmt.Println(Levenshtein("kitten", "sitting"))
	// Output: 3
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"book", "back", 2},
		{"a", "b", 1},
		{"résumé", "resume", 2}, // rune-level, not byte-level
	}
	for _, tc := range cases {
		if got := Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLevenshteinSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentityProperty(t *testing.T) {
	f := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSimilarity(t *testing.T) {
	if got := LevenshteinSimilarity("", ""); got != 1 {
		t.Errorf("empty/empty = %v, want 1", got)
	}
	if got := LevenshteinSimilarity("abc", "abc"); got != 1 {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := LevenshteinSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %v, want 0", got)
	}
	if got := LevenshteinSimilarity("abcd", "abce"); got != 0.75 {
		t.Errorf("one sub of four = %v, want 0.75", got)
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"ab", "ba", 1},          // single transposition
		{"abc", "acb", 1},        // adjacent transposition
		{"ca", "abc", 3},         // OSA restriction (not unrestricted DL's 2)
		{"kitten", "sitting", 3}, // no transpositions involved
		{"abcdef", "abcdfe", 1},
	}
	for _, tc := range cases {
		if got := DamerauLevenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("DamerauLevenshtein(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDamerauNeverExceedsLevenshtein(t *testing.T) {
	f := func(a, b string) bool {
		return DamerauLevenshtein(a, b) <= Levenshtein(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDamerauLevenshteinSimilarityBounds(t *testing.T) {
	f := func(a, b string) bool {
		s := DamerauLevenshteinSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLongestCommonSubsequence(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"abcde", "ace", 3},
		{"abc", "abc", 3},
		{"abc", "def", 0},
		{"AGGTAB", "GXTXAYB", 4},
	}
	for _, tc := range cases {
		if got := LongestCommonSubsequence(tc.a, tc.b); got != tc.want {
			t.Errorf("LCS(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLCSSimilarity(t *testing.T) {
	if got := LCSSimilarity("", ""); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := LCSSimilarity("abc", "abc"); got != 1 {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := LCSSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %v, want 0", got)
	}
}

func TestLCSSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return LongestCommonSubsequence(a, b) == LongestCommonSubsequence(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
