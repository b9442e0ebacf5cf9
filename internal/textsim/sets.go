package textsim

import "slices"

// SetJaccard returns the Jaccard coefficient over two string slices treated
// as sets. Two empty sets have similarity 1. It counts the distinct and the
// shared strings by scanning the slices themselves, in time quadratic in
// their lengths and without allocating: the slices it is meant for are the
// few path tokens of two URLs (F2).
func SetJaccard(a, b []string) float64 {
	na, nb, inter := 0, 0, 0
	for i, x := range a {
		if slices.Contains(a[:i], x) {
			continue
		}
		na++
		if slices.Contains(b, x) {
			inter++
		}
	}
	for j, y := range b {
		if !slices.Contains(b[:j], y) {
			nb++
		}
	}
	if na == 0 && nb == 0 {
		return 1
	}
	return float64(inter) / float64(na+nb-inter)
}

// SetOverlapCount returns |A∩B| over two string slices treated as sets. This
// is the raw "number of overlapping X" measure used by similarity functions
// F4, F5 and F6 before normalization.
func SetOverlapCount(a, b []string) int {
	sa := make(map[string]struct{}, len(a))
	for _, x := range a {
		sa[x] = struct{}{}
	}
	inter := 0
	seen := make(map[string]struct{}, len(b))
	for _, x := range b {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		if _, ok := sa[x]; ok {
			inter++
		}
	}
	return inter
}

// NormalizedOverlap maps a raw overlap count into [0, 1] with the saturating
// transform count/(count+half). half controls where the transform reaches
// 0.5; the framework uses half=2 so that two shared entities already
// constitute substantial evidence, matching the paper's observation that a
// few shared organizations or co-mentioned persons strongly indicate
// identity.
func NormalizedOverlap(count int, half float64) float64 {
	if count <= 0 {
		return 0
	}
	if half <= 0 {
		return 1
	}
	c := float64(count)
	return c / (c + half)
}
