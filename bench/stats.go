package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// samples is one metric's raw observations within a run.
type samples []float64

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is stats.Quantile (linear interpolation between closest ranks),
// NaN for no observations, so a metric nobody measured fails the finite
// check instead of reading as 0.
func quantile(v []float64, q float64) float64 {
	x, err := stats.Quantile(v, q)
	if err != nil {
		return math.NaN()
	}
	return x
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the spread rule is defined over.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
