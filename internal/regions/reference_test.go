package regions

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
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

// ascendingByPlacement is the argsort Ascending replaced, kept as its
// reference: sort the order keys alone, then put each position into its
// key's run, found by binary search.
func ascendingByPlacement(values []float64) []int32 {
	sorted := make([]uint64, len(values))
	for i, v := range values {
		sorted[i] = orderKey(v)
	}
	slices.Sort(sorted)
	order := make([]int32, len(values))
	placed := make([]int32, len(values)) // at the start of each run: how many of it are placed
	for i, v := range values {
		run, _ := slices.BinarySearch(sorted, orderKey(v))
		order[run+int(placed[run])] = int32(i)
		placed[run]++
	}
	return order
}

// randomSample draws values with heavy duplicates, ±0, ±Inf and NaNs of
// two payloads.
func randomSample(rng *rand.Rand, size int) []float64 {
	specials := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001)}
	values := make([]float64, size)
	for i := range values {
		switch r := rng.Intn(10); {
		case r < 4:
			values[i] = math.Round(rng.Float64()*6) / 6
		case r < 6:
			values[i] = specials[rng.Intn(len(specials))]
		default:
			values[i] = rng.Float64()
		}
	}
	return values
}

// TestAscendingMatchesPlacement pins the one-sort argsort to the two-pass
// one it replaced, position for position, ties by position included — on
// a fresh scratch and on one reused across samples of every size.
func TestAscendingMatchesPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var reused Scratch
	for trial := 0; trial < 2000; trial++ {
		values := randomSample(rng, rng.Intn(300))
		want := ascendingByPlacement(values)
		if got := Ascending(values); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Ascending(%v) = %v, placement %v", trial, values, got, want)
		}
		if got := reused.Ascending(values); !slices.Equal(got, want) {
			t.Fatalf("trial %d: a reused scratch sorts %v as %v, placement %v", trial, values, got, want)
		}
	}
}

// TestScratchFitMatchesFresh fits samples of varying size — large, then
// small, then larger — on one scratch, and requires every fit to equal a
// fresh one bit for bit: nothing a larger fit left in the split table or
// the layers may reach a later one.
func TestScratchFitMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var reused Scratch
	for trial, size := range []int{200, 5, 1, 78, 3, 300, 45, 2, 120} {
		values := randomSample(rng, size)
		for k := 1; k <= 12; k++ {
			want, err := FitKMeans1D(values, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.FitKMeans1DOrdered(values, reused.Ascending(values), k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got.Centers, want.Centers, sameBits) || !slices.EqualFunc(got.bounds, want.bounds, sameBits) {
				t.Fatalf("trial %d (n=%d, k=%d): reused scratch fit %v / %v, fresh %v / %v",
					trial, size, k, got.Centers, got.bounds, want.Centers, want.bounds)
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
