package textsim

import "math/bits"

// jaroStack is the name length, in runes, up to which JaroWinkler works
// entirely in stack buffers; longer inputs spill to the heap. It is also the
// longest input jaro's bit-parallel form takes: one bit per rune of a uint64.
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
// transpositions. Inputs of at most 64 runes with an ASCII rb take the
// bit-parallel form, everything else the loop; both pick the same matches.
func jaro(ra, rb []rune) float64 {
	if len(ra) <= jaroStack && len(rb) <= jaroStack && len(ra) > 0 && len(rb) > 0 {
		if s, ok := jaroBits(ra, rb); ok {
			return s
		}
	}
	return jaroLoop(ra, rb)
}

// jaroMatchDist is the match window's half-width: half the longer length,
// minus one, and at least 0.
func jaroMatchDist(la, lb int) int {
	return max(max(la, lb)/2-1, 0)
}

// jaroScore is the Jaro formula over the match and transposition counts.
// Both forms of jaro end here, so equal counts give equal bits.
func jaroScore(la, lb, matches, transpositions int) float64 {
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroBits is jaro on non-empty inputs of at most 64 runes, ok only when rb
// is ASCII. mask[c] holds the positions of byte c in rb, so the candidates
// of ra[i] are one AND: its positions inside the window that no earlier rune
// took. The loop takes the first of those, and so does the lowest set bit.
func jaroBits(ra, rb []rune) (float64, bool) {
	var mask [128]uint64
	for j, r := range rb {
		if r >= 128 {
			return 0, false
		}
		mask[r] |= 1 << j
	}
	la, lb := len(ra), len(rb)
	md := jaroMatchDist(la, lb)
	var aMatched, bMatched uint64
	matches := 0
	for i, r := range ra {
		lo, hi := max(i-md, 0), min(i+md+1, lb)
		if r >= 128 || lo >= hi {
			continue
		}
		window := (uint64(1)<<(hi-lo) - 1) << lo
		if c := mask[r] & window &^ bMatched; c != 0 {
			aMatched |= 1 << i
			bMatched |= c & -c
			matches++
		}
	}
	if matches == 0 {
		return 0, true
	}
	// Transpositions: the k-th matched rune of ra against the k-th of rb.
	transpositions := 0
	for a, b := aMatched, bMatched; a != 0; a, b = a&(a-1), b&(b-1) {
		if ra[bits.TrailingZeros64(a)] != rb[bits.TrailingZeros64(b)] {
			transpositions++
		}
	}
	return jaroScore(la, lb, matches, transpositions), true
}

// jaroLoop is jaro as a scan of each rune's window: the form for long or
// non-ASCII input, and the oracle jaroBits is tested against.
func jaroLoop(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	matchDist := jaroMatchDist(la, lb)
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
	return jaroScore(la, lb, matches, transpositions)
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
