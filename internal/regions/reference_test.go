package regions

import (
	"math/rand"
	"slices"
	"sort"
)

// referenceFitKMeans1D is FitKMeans1D as it ran before the sorted walk: the
// distinct values from a sort.Float64s of a copy, and a binary search per
// value in every Lloyd assignment step. TestKMeansMatchesReference holds
// FitKMeans1D to it bit for bit.
func referenceFitKMeans1D(values []float64, k int, rng *rand.Rand) *KMeans1D {
	s := slices.Clone(values)
	sort.Float64s(s)
	distinct := s[:0]
	for i, v := range s {
		if i == 0 || v != distinct[len(distinct)-1] {
			distinct = append(distinct, v)
		}
	}
	k = min(k, len(distinct))

	centers := seedPlusPlus(distinct, values, k, rng)
	sort.Float64s(centers)
	assign := make([]int, len(values))
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, v := range values {
			if c := nearestCenter(centers, v); assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		sums := make([]float64, len(centers))
		counts := make([]int, len(centers))
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
		sort.Float64s(centers)
	}

	centers = dedupeCenters(centers)
	km := &KMeans1D{Centers: centers, bounds: make([]float64, len(centers)-1)}
	for i := range km.bounds {
		km.bounds[i] = (centers[i] + centers[i+1]) / 2
	}
	return km
}
