package textsim

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
