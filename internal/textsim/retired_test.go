package textsim

import "math"

// Retired library surface. Nothing outside this package's tests has called
// these since the similarity stack was cut down to what Table I needs (PR
// 19); they are out of the production package and live here only so that
// the tests written against them (levenshtein_test.go, the n-gram half of
// ngram_test.go, ExampleLevenshtein) keep running. Delete
// a declaration together with its tests; never call one from non-test code.

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-rune insertions, deletions and substitutions transforming a into
// b. The implementation uses the two-row dynamic program and operates on
// runes, so multi-byte characters count as single symbols.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Keep the shorter string in rb to minimize the row size.
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = min3(
				prev[j]+1,      // deletion
				curr[j-1]+1,    // insertion
				prev[j-1]+cost, // substitution
			)
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)]
}

// LevenshteinSimilarity returns 1 - dist/maxLen, a similarity in [0, 1].
// Two empty strings are defined to have similarity 1.
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// DamerauLevenshtein returns the optimal-string-alignment distance: like
// Levenshtein but also allowing transposition of two adjacent runes as a
// single operation. (This is the restricted variant; substrings are not
// edited more than once.)
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Three rows: i-2, i-1, i.
	d := make([][]int, 3)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
	}
	for j := 0; j <= len(rb); j++ {
		d[1][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		row := d[2]
		row[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			v := min3(
				d[1][j]+1,      // deletion
				row[j-1]+1,     // insertion
				d[1][j-1]+cost, // substitution
			)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := d[0][j-2] + 1; t < v {
					v = t
				}
			}
			row[j] = v
		}
		d[0], d[1], d[2] = d[1], d[2], d[0]
	}
	return d[1][len(rb)]
}

// DamerauLevenshteinSimilarity is the normalized similarity form of
// DamerauLevenshtein, in [0, 1].
func DamerauLevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(DamerauLevenshtein(a, b))/float64(maxLen)
}

// LongestCommonSubsequence returns the length of the longest common
// subsequence of a and b, a building block for order-preserving string
// similarity.
func LongestCommonSubsequence(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				curr[j] = prev[j-1] + 1
			} else if prev[j] >= curr[j-1] {
				curr[j] = prev[j]
			} else {
				curr[j] = curr[j-1]
			}
		}
		prev, curr = curr, prev
		for j := range curr {
			curr[j] = 0
		}
	}
	return prev[len(rb)]
}

// LCSSimilarity returns 2·LCS/(len(a)+len(b)), a similarity in [0, 1]. Two
// empty strings have similarity 1.
func LCSSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	return 2 * float64(LongestCommonSubsequence(a, b)) / float64(la+lb)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// NGramProfile is a multiset of character n-grams with occurrence counts.
type NGramProfile map[string]int

// NGrams returns the profile of character n-grams of s for the given n.
// The string is padded with n-1 leading and trailing '#' markers so that
// prefixes and suffixes contribute distinguishable grams, the convention
// used in approximate string matching. n must be >= 1; for n <= 0 an empty
// profile is returned.
func NGrams(s string, n int) NGramProfile {
	profile := make(NGramProfile)
	if n <= 0 {
		return profile
	}
	runes := []rune(s)
	if len(runes) == 0 {
		return profile
	}
	if n == 1 {
		for _, r := range runes {
			profile[string(r)]++
		}
		return profile
	}
	pad := make([]rune, 0, len(runes)+2*(n-1))
	for i := 0; i < n-1; i++ {
		pad = append(pad, '#')
	}
	pad = append(pad, runes...)
	for i := 0; i < n-1; i++ {
		pad = append(pad, '#')
	}
	for i := 0; i+n <= len(pad); i++ {
		profile[string(pad[i:i+n])]++
	}
	return profile
}

// JaccardNGram returns the Jaccard coefficient |A∩B| / |A∪B| over the n-gram
// sets (counts ignored) of a and b. Two empty strings have similarity 1.
func JaccardNGram(a, b string, n int) float64 {
	pa, pb := NGrams(a, n), NGrams(b, n)
	return SetJaccard(keys(pa), keys(pb))
}

// DiceNGram returns the Sørensen-Dice coefficient 2|A∩B| / (|A|+|B|) over
// the n-gram sets of a and b.
func DiceNGram(a, b string, n int) float64 {
	pa, pb := NGrams(a, n), NGrams(b, n)
	inter := setIntersectionSize(pa, pb)
	if len(pa)+len(pb) == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(len(pa)+len(pb))
}

// OverlapNGram returns the overlap coefficient |A∩B| / min(|A|, |B|) over
// the n-gram sets of a and b.
func OverlapNGram(a, b string, n int) float64 {
	pa, pb := NGrams(a, n), NGrams(b, n)
	if len(pa) == 0 && len(pb) == 0 {
		return 1
	}
	if len(pa) == 0 || len(pb) == 0 {
		return 0
	}
	inter := setIntersectionSize(pa, pb)
	m := len(pa)
	if len(pb) < m {
		m = len(pb)
	}
	return float64(inter) / float64(m)
}

// CosineNGram returns the cosine similarity of the n-gram count vectors of
// a and b, taking multiplicities into account.
func CosineNGram(a, b string, n int) float64 {
	pa, pb := NGrams(a, n), NGrams(b, n)
	if len(pa) == 0 && len(pb) == 0 {
		return 1
	}
	if len(pa) == 0 || len(pb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for g, ca := range pa {
		na += float64(ca) * float64(ca)
		if cb, ok := pb[g]; ok {
			dot += float64(ca) * float64(cb)
		}
	}
	for _, cb := range pb {
		nb += float64(cb) * float64(cb)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func keys(p NGramProfile) []string {
	out := make([]string, 0, len(p))
	for k := range p {
		out = append(out, k)
	}
	return out
}

func setIntersectionSize(a, b NGramProfile) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for g := range a {
		if _, ok := b[g]; ok {
			inter++
		}
	}
	return inter
}
