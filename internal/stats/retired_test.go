package stats

// Retired library surface: summary statistics. Nothing outside this
// package's tests has called these, so they are not in the production
// package. They live here only so that their tests (TestMean) keep running.
// Delete a declaration together with its tests; never call one from
// non-test code.

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
