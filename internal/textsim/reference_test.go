package textsim

import "math"

// Entry points the tests use as references for surviving code; no non-test
// file calls them.

// Jaro is the string entry point of jaro, the kernel under JaroWinkler;
// TestJaroMatchesReference compares it to the rune-slice reference.
func Jaro(a, b string) float64 {
	var abuf, bbuf [jaroStack]rune
	return jaro(appendRunes(abuf[:0], a), appendRunes(bbuf[:0], b))
}

// PackedExtendedJaccard is PackedExtendedJaccardOfDot on its own join, the
// whole-measure form TestPackedEquivalence and TestPackedOfDotForms compare
// to the map form and to the pre-OfDot body.
func PackedExtendedJaccard(a, b *PackedVector) float64 {
	dot, inter := a.DotIntersect(b)
	return PackedExtendedJaccardOfDot(a, b, dot, inter)
}

// PackedPearsonSim is PackedPearsonSimOfDot on its own join (see
// PackedExtendedJaccard).
func PackedPearsonSim(a, b *PackedVector) float64 {
	dot, inter := a.DotIntersect(b)
	return PackedPearsonSimOfDot(a, b, dot, inter)
}

// Dot is the inner product alone of DotIntersect's merge join, the form
// TestPackedEquivalence compares to the map Dot and BenchmarkDot_Packed
// times.
func (p *PackedVector) Dot(o *PackedVector) float64 {
	dot, _ := p.DotIntersect(o)
	return dot
}

// NameSimilarity is PreparedNameSimilarity from raw strings, the form the
// name tests and examples are written against.
func NameSimilarity(a, b string) float64 {
	return PreparedNameSimilarity(PrepareName(a), PrepareName(b))
}

// The map forms of the F10 and F9 measures, the oracles TestPackedEquivalence
// holds PackedExtendedJaccard and PackedPearsonSim to.

// ExtendedJaccard returns the extended Jaccard (Tanimoto) similarity
// a·b / (|a|² + |b|² − a·b), the continuous generalization of the Jaccard
// coefficient used by similarity function F10. Two empty vectors have
// similarity 1.
func ExtendedJaccard(a, b SparseVector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	dot := a.Dot(b)
	na, nb := a.Norm(), b.Norm()
	den := na*na + nb*nb - dot
	if den <= 0 {
		return 0
	}
	return dot / den
}

// PearsonSim returns the Pearson correlation of a and b over the union of
// their supports, linearly rescaled from [-1, 1] to [0, 1] so that it fits
// the framework's similarity value space (used by F9). Vectors with zero
// variance over the union support yield 0.5 (no evidence either way),
// except two identical empty vectors which yield 1.
//
// The correlation is computed from sufficient statistics (sums, squared
// sums, dot product and intersection size) rather than materializing the
// union support, since this runs on every document pair of a block.
func PearsonSim(a, b SparseVector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, big := a, b
	if len(big) < len(small) {
		small, big = big, small
	}
	var dot float64
	inter := 0
	for t, ws := range small {
		if wb, ok := big[t]; ok {
			dot += ws * wb
			inter++
		}
	}
	var sa, sqa, sb, sqb float64
	for _, w := range a {
		sa += w
		sqa += w * w
	}
	for _, w := range b {
		sb += w
		sqb += w * w
	}
	n := float64(len(a) + len(b) - inter)
	if n == 0 {
		return 1
	}
	// Over the union support U: Σ(x−mx)(y−my) = x·y − SxSy/|U|, etc.
	sxy := dot - sa*sb/n
	sxx := sqa - sa*sa/n
	syy := sqb - sb*sb/n
	if sxx <= 1e-15 || syy <= 1e-15 {
		return 0.5
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return (r + 1) / 2
}

// setJaccardByMaps is SetJaccard as it counted before the slice scan: one
// map per side, the intersection counted over the first map. The counts,
// and so the bits, are what TestSetJaccardMatchesMaps holds SetJaccard to.
func setJaccardByMaps(a, b []string) float64 {
	sa := make(map[string]struct{}, len(a))
	for _, x := range a {
		sa[x] = struct{}{}
	}
	sb := make(map[string]struct{}, len(b))
	for _, x := range b {
		sb[x] = struct{}{}
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for x := range sa {
		if _, ok := sb[x]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}
