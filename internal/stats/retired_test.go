package stats

// Retired library surface: summary statistics. Nothing outside this
// package's tests has called these; PR 19 took them out of the production
// package. They live here only so that their tests (TestMean, TestMinMax,
// the Median half of TestQuantileMedian, TestMeanBoundsProperty) keep
// running. Delete a declaration together with its tests; never call one
// from non-test code.

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

// Median returns the median of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}
