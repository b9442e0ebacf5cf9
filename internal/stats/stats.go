// Package stats provides small numeric helpers shared across the entity
// resolution framework: quantiles, the harmonic mean, clamping and
// deterministic pseudo-random number utilities.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks. The input does not need to be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Harmonic returns the harmonic mean of a and b, the combinator used by both
// the F-measure and the Fp-measure. It returns 0 when a+b == 0.
func Harmonic(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// Clamp constrains x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
