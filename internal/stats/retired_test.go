package stats

import "math"

// Retired library surface: summary statistics and histograms. Nothing
// outside this package's tests has called these; PR 19 took them out of the
// production package. They live here only so that their tests (TestMean,
// TestVarianceAndStdDev, TestMinMax, TestArgMaxArgMin, the Median half of
// TestQuantileMedian, TestHistogram*, TestMeanBoundsProperty,
// TestVarianceNonNegativeProperty) keep running. Delete a declaration
// together with its tests; never call one from non-test code.

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
