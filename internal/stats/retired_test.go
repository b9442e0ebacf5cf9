package stats

import (
	"errors"
	"math"
	"math/rand"
)

// Retired library surface: summary statistics, correlation, histograms and
// the Zipf sampler. Nothing outside this package's tests has called these;
// PR 19 took them out of the production package. They live here only so
// that their tests (TestMean, TestVarianceAndStdDev, TestMinMax,
// TestArgMaxArgMin, TestPearson, the Median half of TestQuantileMedian,
// TestHistogram*, TestMeanBoundsProperty, TestVarianceNonNegativeProperty,
// TestZipfSkew) keep running. Delete a declaration together with its tests;
// never call one from non-test code.

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (division by n, not n-1).
// It returns 0 for inputs with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest value in xs. It returns ErrEmpty for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs. It returns ErrEmpty for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ArgMax returns the index of the largest element of xs, breaking ties in
// favour of the smallest index. It returns -1 for empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x > xs[best] {
			best = i + 1
		}
	}
	return best
}

// ArgMin returns the index of the smallest element of xs, breaking ties in
// favour of the smallest index. It returns -1 for empty input.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x < xs[best] {
			best = i + 1
		}
	}
	return best
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys. It returns 0 when either series has zero
// variance, and an error when the lengths differ or the input is empty.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Histogram counts how many values of xs fall into each of n equal-width
// buckets spanning [lo, hi]. Values outside the range are clamped into the
// first or last bucket. It returns nil when n <= 0 or hi <= lo.
func Histogram(xs []float64, n int, lo, hi float64) []int {
	if n <= 0 || hi <= lo {
		return nil
	}
	counts := make([]int, n)
	width := (hi - lo) / float64(n)
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		counts[idx]++
	}
	return counts
}

// Zipf draws an integer in [0, n) following a Zipf-like distribution with
// exponent s (s > 0 skews towards small indices). Used by the corpus
// generator to produce the skewed cluster-size distributions observed in web
// people-search data.
func Zipf(rng *rand.Rand, n int, s float64) int {
	if n <= 0 {
		return 0
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1.0 / math.Pow(float64(i+1), s)
	}
	c := WeightedChoice(rng, weights)
	if c < 0 {
		return 0
	}
	return c
}
