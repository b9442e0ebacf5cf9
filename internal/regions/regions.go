// Package regions implements the paper's region-based accuracy estimation
// (Section IV-A): the similarity value space [0, 1] is partitioned into
// regions — either equal-width sub-intervals or 1-D k-means clusters of the
// observed training values — and for each region the "accuracy of link
// existence" is estimated as the fraction of training pairs falling in the
// region that are true links. Decisions can then consult the region
// accuracy instead of (or in addition to) a single global threshold.
package regions

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Partitioner assigns similarity values in [0, 1] to region indices.
type Partitioner interface {
	// Region returns the region index of v, in [0, NumRegions).
	Region(v float64) int
	// NumRegions returns the number of regions.
	NumRegions() int
	// Boundaries returns the region upper boundaries in increasing order;
	// the last boundary is 1 (used to render Figure 1's dotted lines).
	Boundaries() []float64
}

// EqualWidthBins partitions [0, 1] into k equal-width sub-intervals
// [0, 1/k), [1/k, 2/k), …, [1−1/k, 1] — the paper's first region scheme.
type EqualWidthBins struct {
	k int
}

// NewEqualWidthBins returns a k-bin equal-width partitioner; k < 1 is
// treated as 1.
func NewEqualWidthBins(k int) *EqualWidthBins {
	if k < 1 {
		k = 1
	}
	return &EqualWidthBins{k: k}
}

// Region implements Partitioner.
func (b *EqualWidthBins) Region(v float64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1 {
		return b.k - 1
	}
	return int(v * float64(b.k))
}

// NumRegions implements Partitioner.
func (b *EqualWidthBins) NumRegions() int { return b.k }

// Boundaries implements Partitioner.
func (b *EqualWidthBins) Boundaries() []float64 {
	out := make([]float64, b.k)
	for i := 1; i <= b.k; i++ {
		out[i-1] = float64(i) / float64(b.k)
	}
	return out
}

// KMeans1D partitions by nearest cluster center, the centers fitted to the
// observed training similarity values — the paper's second scheme, which
// adapts region density to the (non-uniform) value distribution.
type KMeans1D struct {
	// Centers are the fitted cluster centers in increasing order.
	Centers []float64
	// bounds[i] is the midpoint between Centers[i] and Centers[i+1]; a
	// value belongs to region i when it is below bounds[i].
	bounds []float64
}

// FitKMeans1D clusters values into at most k regions with Lloyd's
// algorithm, seeded by k-means++ draws from rng. Duplicate centers collapse,
// so the fitted partitioner may have fewer than k regions when the data has
// fewer than k distinct values. It returns an error for empty input or
// k < 1.
func FitKMeans1D(values []float64, k int, rng *rand.Rand) (*KMeans1D, error) {
	return FitKMeans1DOrdered(values, Ascending(values), k, rng)
}

// Ascending returns the positions of values in ascending order of value,
// NaNs first as sort.Float64s places them; equal values — −0 and +0 count
// as equal, and so do all NaNs — come in position order, though no caller
// may rely on their order. It is the one sort a training sample needs: a
// caller fitting several criteria to one sample sorts it once and hands the
// order to each.
//
// It sorts the values' order keys, a plain integer sort with no comparison
// function, and then puts each position into its key's run, found by
// binary search.
func Ascending(values []float64) []int32 {
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

// orderKey maps v to an integer in Ascending's order: every NaN below −Inf,
// −0 equal to +0, and otherwise the order of the floats.
func orderKey(v float64) uint64 {
	if v != v {
		return 0
	}
	b := math.Float64bits(v)
	if v == 0 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// FitKMeans1DOrdered is FitKMeans1D given order = Ascending(values).
func FitKMeans1DOrdered(values []float64, order []int32, k int, rng *rand.Rand) (*KMeans1D, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("regions: no values to cluster")
	}
	if k < 1 {
		return nil, fmt.Errorf("regions: k = %d", k)
	}
	distinct := distinctSorted(values, order)
	if k > len(distinct) {
		k = len(distinct)
	}

	centers := seedPlusPlus(distinct, values, k, rng)
	sort.Float64s(centers)

	assign := make([]int, len(values))
	sums := make([]float64, len(centers))
	counts := make([]int, len(centers))
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		if !assignNearest(centers, values, order, assign) && iter > 0 {
			break
		}
		// Update step. The sums run in the values' own order, which is
		// what fixes the centers' bits.
		clear(sums)
		clear(counts)
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

	// Collapse coincident centers.
	centers = dedupeCenters(centers)
	km := &KMeans1D{Centers: centers}
	km.bounds = make([]float64, len(centers)-1)
	for i := 0; i+1 < len(centers); i++ {
		km.bounds[i] = (centers[i] + centers[i+1]) / 2
	}
	return km, nil
}

// assignNearest is Lloyd's assignment step on sorted centers: it sets
// assign[p] to the center nearest values[p] and reports whether any
// assignment changed. It walks the values in ascending order with a search
// index that only grows: c stays the first center >= v — what
// sort.SearchFloat64s(centers, v) finds — because v never decreases, so
// every value gets nearestCenter's answer. NaN values come first in that
// order and take the last center, as the search gives them.
func assignNearest(centers, values []float64, order []int32, assign []int) bool {
	changed := false
	c := 0
	for _, p := range order {
		v := values[p]
		a := len(centers) - 1
		if v == v {
			for c < len(centers) && !(centers[c] >= v) {
				c++
			}
			a = nearestAt(centers, v, c)
		}
		if assign[p] != a {
			assign[p] = a
			changed = true
		}
	}
	return changed
}

// Region implements Partitioner.
func (km *KMeans1D) Region(v float64) int {
	return sort.SearchFloat64s(km.bounds, v)
}

// NumRegions implements Partitioner.
func (km *KMeans1D) NumRegions() int { return len(km.Centers) }

// Boundaries implements Partitioner.
func (km *KMeans1D) Boundaries() []float64 {
	out := make([]float64, 0, len(km.Centers))
	out = append(out, km.bounds...)
	return append(out, 1)
}

// Span is a run of adjacent regions of a KMeans1D as a test on a value v:
// v lies in one of them iff !(Lo >= v) && Hi >= v. That is Region's search
// rule, values exactly on a bound included. Lo is NaN for a run that starts
// at the first region and Hi is +Inf for one that ends at the last, so
// there the test holds for every value but NaN, which Region puts in the
// last region and no Span contains.
type Span struct{ Lo, Hi float64 }

// Spans returns the maximal runs of adjacent regions r with flag[r] set, in
// increasing order; flag has one entry per region.
func (km *KMeans1D) Spans(flag []bool) []Span {
	var out []Span
	for r := 0; r < len(flag); r++ {
		if !flag[r] {
			continue
		}
		s := Span{Lo: math.NaN(), Hi: math.Inf(1)}
		if r > 0 {
			s.Lo = km.bounds[r-1]
		}
		for r+1 < len(flag) && flag[r+1] {
			r++
		}
		if r < len(km.bounds) {
			s.Hi = km.bounds[r]
		}
		out = append(out, s)
	}
	return out
}

// distinctSorted returns the distinct values in ascending order, given
// order = Ascending(values).
func distinctSorted(values []float64, order []int32) []float64 {
	out := make([]float64, 0, len(values))
	for _, p := range order {
		if v := values[p]; len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// seedPlusPlus draws k initial centers with k-means++ weighting: the first
// uniformly, subsequent ones proportional to squared distance from the
// nearest chosen center.
func seedPlusPlus(distinct, values []float64, k int, rng *rand.Rand) []float64 {
	centers := make([]float64, 0, k)
	centers = append(centers, values[rng.Intn(len(values))])
	weights := make([]float64, len(distinct))
	for len(centers) < k {
		total := 0.0
		for i, v := range distinct {
			d := v - centers[nearestCenter(centers, v)]
			weights[i] = d * d
			total += weights[i]
		}
		if total == 0 {
			break
		}
		r := rng.Float64() * total
		chosen := len(distinct) - 1
		for i, w := range weights {
			r -= w
			if r < 0 {
				chosen = i
				break
			}
		}
		centers = append(centers, distinct[chosen])
	}
	return centers
}

// nearestCenter returns the center a binary search finds nearest to v:
// the first center >= v or the one before it, whichever is closer. On
// sorted centers that is the nearest center. seedPlusPlus calls it on
// centers still in draw order, where the search may settle on another one;
// that choice steers the k-means++ weights, and the goldens
// (TestGoldenRunDigest, TestSwooshBaselineAgainstFramework) pin it as it is.
func nearestCenter(centers []float64, v float64) int {
	return nearestAt(centers, v, sort.SearchFloat64s(centers, v))
}

// nearestAt is nearestCenter given i, the index of the first center >= v
// (len(centers) when there is none).
func nearestAt(centers []float64, v float64, i int) int {
	if i == 0 {
		return 0
	}
	if i == len(centers) {
		return len(centers) - 1
	}
	if v-centers[i-1] <= centers[i]-v {
		return i - 1
	}
	return i
}

func dedupeCenters(centers []float64) []float64 {
	out := centers[:0]
	for i, c := range centers {
		if i == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}
