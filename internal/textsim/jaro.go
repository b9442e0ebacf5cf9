package textsim

// jaroStack is the name length, in runes, up to which JaroWinkler works
// entirely in stack buffers; longer inputs spill to the heap.
const jaroStack = 64

// appendRunes decodes s into buf, which callers back with a stack array.
func appendRunes(buf []rune, s string) []rune {
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

// jaro returns the Jaro similarity of two rune strings in [0, 1]. Characters
// match when equal and within half the longer length (minus one) of each
// other; the score combines the match counts and the number of
// transpositions.
func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	matchDist := la
	if lb > matchDist {
		matchDist = lb
	}
	matchDist = matchDist/2 - 1
	if matchDist < 0 {
		matchDist = 0
	}
	var aflags, bflags [jaroStack]bool
	aMatched, bMatched := aflags[:], bflags[:]
	if la > jaroStack {
		aMatched = make([]bool, la)
	}
	if lb > jaroStack {
		bMatched = make([]bool, lb)
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - matchDist
		if lo < 0 {
			lo = 0
		}
		hi := i + matchDist + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatched[j] || ra[i] != rb[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions: matched characters out of order.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity: Jaro boosted by a prefix
// bonus of up to four common leading characters with scaling factor 0.1,
// the standard parameters from the record-linkage literature.
func JaroWinkler(a, b string) float64 {
	return JaroWinklerParams(a, b, 0.1, 4)
}

// JaroWinklerParams is JaroWinkler with an explicit prefix scaling factor p
// (commonly 0.1, must not exceed 0.25 to keep the result within [0, 1]) and
// maximum prefix length maxPrefix.
func JaroWinklerParams(a, b string, p float64, maxPrefix int) float64 {
	if p < 0 {
		p = 0
	}
	if p > 0.25 {
		p = 0.25
	}
	var abuf, bbuf [jaroStack]rune
	ra, rb := appendRunes(abuf[:0], a), appendRunes(bbuf[:0], b)
	j := jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < maxPrefix && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*p*(1-j)
}
