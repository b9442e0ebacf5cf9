package regions

import (
	"math"
	"slices"
	"sort"
)

// finiteDistinct returns the distinct finite values in ascending order and
// the values equal to each, from a sort.Float64s of a copy.
func finiteDistinct(values []float64) (distinct []float64, runs [][]float64) {
	s := slices.Clone(values)
	sort.Float64s(s)
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if len(distinct) == 0 || v != distinct[len(distinct)-1] {
			distinct = append(distinct, v)
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], v)
	}
	return distinct, runs
}

// sse is the squared error of values about their mean, in two passes.
func sse(values []float64) float64 {
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	e := 0.0
	for _, v := range values {
		e += (v - mean) * (v - mean)
	}
	return e
}

// bruteForceKMeans1D enumerates every split of the runs of equal values
// into k contiguous, non-empty groups. It returns the least squared error
// and every split within tol of it, each as the first run index of groups
// 1 … k−1.
func bruteForceKMeans1D(runs [][]float64, k int, tol float64) (least float64, optimal [][]int) {
	type split struct {
		starts []int
		err    float64
	}
	var all []split
	var walk func(starts []int)
	walk = func(starts []int) {
		from := 1
		if len(starts) > 0 {
			from = starts[len(starts)-1] + 1
		}
		if len(starts) == k-1 {
			e, bounds := 0.0, append(append([]int{0}, starts...), len(runs))
			for g := 0; g < k; g++ {
				e += sse(slices.Concat(runs[bounds[g]:bounds[g+1]]...))
			}
			all = append(all, split{slices.Clone(starts), e})
			return
		}
		for s := from; s < len(runs); s++ {
			walk(append(starts, s))
		}
	}
	walk(nil)
	least = math.Inf(1)
	for _, s := range all {
		least = min(least, s.err)
	}
	for _, s := range all {
		if s.err <= least+tol {
			optimal = append(optimal, s.starts)
		}
	}
	return least, optimal
}

// naiveKMeans1D is the least squared error of k contiguous groups of the
// runs by the full O(k·d²) dynamic program, every start tried for every
// prefix.
func naiveKMeans1D(runs [][]float64, k int) float64 {
	d := len(runs)
	cost := make([][]float64, d+1) // cost[a][b]: runs[a:b] as one group
	for a := range cost {
		cost[a] = make([]float64, d+1)
		for b := a + 1; b <= d; b++ {
			cost[a][b] = sse(slices.Concat(runs[a:b]...))
		}
	}
	layer := slices.Clone(cost[0])
	for l := 1; l < k; l++ {
		next := slices.Repeat([]float64{math.Inf(1)}, d+1)
		for b := l + 1; b <= d; b++ {
			for a := l; a < b; a++ {
				next[b] = min(next[b], layer[a]+cost[a][b])
			}
		}
		layer = next
	}
	return layer[d]
}
