// Package regions implements the paper's region-based accuracy estimation
// (Section IV-A): the similarity value space [0, 1] is partitioned into
// regions — either equal-width sub-intervals or 1-D k-means clusters of the
// observed training values — and for each region the "accuracy of link
// existence" is estimated as the fraction of training pairs falling in the
// region that are true links. Decisions can then consult the region
// accuracy instead of (or in addition to) a single global threshold.
//
// The k-means clusters are the exact optimum, not a local one: in one
// dimension a dynamic program finds the least within-cluster squared error,
// so a fit is deterministic and draws no random numbers.
package regions

import (
	"fmt"
	"math"
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
	// Centers are the fitted cluster centers in strictly increasing order.
	Centers []float64
	// bounds[i] is the midpoint between Centers[i] and Centers[i+1]; a
	// value belongs to region i when it is below bounds[i].
	bounds []float64
}

// FitKMeans1D clusters the finite values into exactly min(k, d) regions,
// d the number of distinct finite values, minimising the within-cluster sum
// of squared deviations exactly (1-D k-means has an exact optimum, found by
// dynamic programming). NaN and ±Inf are not fitted; Region still maps them,
// NaN and +Inf to the last region and −Inf to the first. With no finite
// value the fit is one region with a NaN center. It returns an error for
// empty input or k < 1.
func FitKMeans1D(values []float64, k int) (*KMeans1D, error) {
	return FitKMeans1DOrdered(values, Ascending(values), k)
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
//
// The optimal clusters are runs of the sorted distinct values, so the fit
// is a dynamic program over prefix sums of their count, sum and sum of
// squares (Wang & Song 2011, Ckmeans.1d.dp): layer l holds, for every
// prefix of the distinct values, the least error of l+1 runs and where the
// last one starts. Two facts bound that start. It never moves left as the
// prefix grows, so a layer is filled by divide and conquer in O(d log d).
// It never lies left of the layer before's start for the same prefix (as
// in Ckmeans.1d.dp), which narrows each search. The fit is deterministic
// and its error is the least up to rounding; which of two equally good
// splits it returns is not specified.
func FitKMeans1DOrdered(values []float64, order []int32, k int) (*KMeans1D, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("regions: no values to cluster")
	}
	if k < 1 {
		return nil, fmt.Errorf("regions: k = %d", k)
	}
	// distinct[i] is the i-th distinct finite value and pre[i] sums the
	// values below it.
	distinct := make([]float64, 0, len(values))
	pre := make([]prefix, 1, len(values)+1)
	for _, p := range order {
		v := values[p]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if len(distinct) == 0 || v != distinct[len(distinct)-1] {
			distinct = append(distinct, v)
			pre = append(pre, pre[len(pre)-1])
		}
		last := &pre[len(pre)-1]
		last.n, last.sum, last.sq = last.n+1, last.sum+v, last.sq+v*v
	}
	n := len(distinct)
	if n == 0 {
		return &KMeans1D{Centers: []float64{math.NaN()}}, nil
	}
	k = min(k, n)

	// split[l*(n+1)+b] is where the last of l+1 runs of distinct[:b] starts.
	split := make([]int32, k*(n+1))
	dp := &layer{pre: pre, prev: make([]float64, n+1), cur: make([]float64, n+1)}
	for b, pb := range pre[1:] { // one run: no split
		dp.cur[b+1] = pb.sq - pb.sum*pb.sum/pb.n
	}
	for l := 1; l < k; l++ {
		dp.prev, dp.cur = dp.cur, dp.prev
		dp.below, dp.split = split[(l-1)*(n+1):l*(n+1)], split[l*(n+1):(l+1)*(n+1)]
		// Each later run needs a value; the last layer needs only the whole.
		lo, hi := l+1, n-(k-1-l)
		if l == k-1 {
			lo = n
		}
		dp.fill(lo, hi, l, n-1)
	}

	km := &KMeans1D{Centers: make([]float64, k), bounds: make([]float64, k-1)}
	for l, b := k-1, n; l >= 0; l-- {
		a := int(split[l*(n+1)+b])
		mean := (pre[b].sum - pre[a].sum) / (pre[b].n - pre[a].n)
		// Clamped into its run, a mean stays below the next run's.
		km.Centers[l] = min(max(mean, distinct[a]), distinct[b-1])
		b = a
	}
	for i := range km.bounds {
		km.bounds[i] = (km.Centers[i] + km.Centers[i+1]) / 2
	}
	return km, nil
}

// prefix is the count, sum and sum of squares of the fitted values below
// one distinct value.
type prefix struct{ n, sum, sq float64 }

// layer is one layer of FitKMeans1DOrdered's dynamic program.
type layer struct {
	pre       []prefix
	prev, cur []float64 // least errors of the layer before and of this one
	split     []int32   // where this layer's last run starts
	below     []int32   // where the layer before's last run starts
}

// fill sets cur[b] and split[b] for b in [lo, hi], given that the last run
// starts in [from, to]: it tries every start for the middle b, and the best
// one bounds the starts of the b on either side. A last run distinct[a:b]
// errs by Σv² − (Σv)²/count over its values.
func (l *layer) fill(lo, hi, from, to int) {
	for lo <= hi {
		b := (lo + hi) / 2
		pb, best, at := l.pre[b], math.Inf(1), max(from, min(int(l.below[b]), to))
		for a := at; a <= min(to, b-1); a++ {
			pa := l.pre[a]
			s := pb.sum - pa.sum
			if e := l.prev[a] + (pb.sq - pa.sq) - s*s/(pb.n-pa.n); e < best {
				best, at = e, a
			}
		}
		l.cur[b], l.split[b] = best, int32(at)
		if lo < b {
			l.fill(lo, b-1, from, at)
		}
		lo, from = b+1, at
	}
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
