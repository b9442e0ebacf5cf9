package textsim

import "strings"

// MongeElkan returns the Monge-Elkan similarity of two token sequences: for
// each token of a it finds the best-matching token of b under the secondary
// measure sim, and averages those maxima. The raw Monge-Elkan measure is
// asymmetric; this function returns the symmetrized mean of both directions,
// which is the form used in record-linkage practice. Tokens may be strings
// or any stand-in for them, such as per-call token IDs: the loop, its early
// exit and its summation order are the same for every T, so a sim that
// returns the same bits gives the same result.
func MongeElkan[T any](a, b []T, sim func(x, y T) float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return (mongeElkanDirected(a, b, sim) + mongeElkanDirected(b, a, sim)) / 2
}

func mongeElkanDirected[T any](a, b []T, sim func(x, y T) float64) float64 {
	var total float64
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := sim(ta, tb); s > best {
				best = s
				if best == 1 {
					break
				}
			}
		}
		total += best
	}
	return total / float64(len(a))
}

// Name is a person name prepared for repeated comparison: the normalized
// form and its token list are computed once, outside the pairwise loop. A
// Name is immutable and safe for concurrent reads.
type Name struct {
	// Norm is the normalized (lower-cased, punctuation-folded) name.
	Norm string
	// Tokens are the whitespace tokens of Norm.
	Tokens []string
}

// PrepareName normalizes and tokenizes s once for repeated comparisons.
func PrepareName(s string) Name {
	norm := normalizeName(s)
	return Name{Norm: norm, Tokens: strings.Fields(norm)}
}

// PreparedNameSimilarity is the composite person-name comparator of the
// framework's name functions F3 and F7. It symmetrically combines
// Jaro-Winkler on the whole string with Monge-Elkan over tokens using
// Jaro-Winkler as the secondary measure, making it robust both to
// character-level typos and to token reordering ("John R. Smith" vs
// "Smith, John").
func PreparedNameSimilarity(a, b Name) float64 {
	return NameSimilarityOf(a, b, a.Tokens, b.Tokens, JaroWinkler)
}

// NameSimilarityOf is PreparedNameSimilarity with the tokens of a and b
// given as ta and tb in whatever form tokenSim compares them: the matrix
// kernel passes per-call token IDs and a table of Jaro-Winkler values. It
// equals PreparedNameSimilarity(a, b) bit for bit whenever
// tokenSim(ta[x], tb[y]) == JaroWinkler(a.Tokens[x], b.Tokens[y]).
func NameSimilarityOf[T any](a, b Name, ta, tb []T, tokenSim func(x, y T) float64) float64 {
	if a.Norm == b.Norm {
		return 1
	}
	whole := JaroWinkler(a.Norm, b.Norm)
	tokens := MongeElkan(ta, tb, tokenSim)
	if tokens > whole {
		return tokens
	}
	return whole
}

func normalizeName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, ",", " ")
	s = strings.ReplaceAll(s, ".", " ")
	return strings.Join(strings.Fields(s), " ")
}
