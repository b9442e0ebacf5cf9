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
	"cmp"
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

// Region implements Partitioner. A NaN falls in the last region, as in
// KMeans1D.
func (b *EqualWidthBins) Region(v float64) int {
	if v < 0 {
		v = 0
	}
	if !(v < 1) {
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
	var s Scratch
	return s.FitKMeans1DOrdered(values, s.Ascending(values), k)
}

// Scratch is the memory of Ascending and FitKMeans1DOrdered, kept by a
// caller that sorts and fits many samples one after another — the
// decision stage fits three criteria to each function's training sample,
// block after block. Only memory carries over between calls, never a value:
// every call clears what it reads before writing it. The zero value is
// ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	keyed    []keyedPosition
	spare    []keyedPosition // radixSort's second buffer
	order    []int32
	distinct []float64
	pre      []prefix
	split    []int32
	prev     []float64
	cur      []float64
}

// keyedPosition is one value's position with its order key.
type keyedPosition struct {
	key uint64
	at  int32
}

// Ascending returns the positions of values in ascending order of value,
// NaNs first as sort.Float64s places them; equal values — −0 and +0 count
// as equal, and so do all NaNs — come in position order, though no caller
// may rely on their order. It is the one sort a training sample needs: a
// caller fitting several criteria to one sample sorts it once and hands the
// order to each.
//
// It sorts (order key, position) pairs once; no two pairs are equal, so the
// order is fully determined.
func Ascending(values []float64) []int32 {
	return new(Scratch).Ascending(values)
}

// Ascending is the package's Ascending on the scratch's memory: the order it
// returns is valid until the scratch's next Ascending.
func (s *Scratch) Ascending(values []float64) []int32 {
	keyed := slices.Grow(s.keyed[:0], len(values))[:len(values)]
	for i, v := range values {
		keyed[i] = keyedPosition{orderKey(v), int32(i)}
	}
	if len(keyed) < radixCutoff {
		sortKeyed(keyed)
	} else {
		keyed = s.radixSort(keyed)
	}
	order := slices.Grow(s.order[:0], len(values))[:len(values)]
	for i, kp := range keyed {
		order[i] = kp.at
	}
	s.keyed, s.order = keyed, order
	return order
}

// radixCutoff is the sample size from which Ascending sorts by radix rather
// than by comparison, where BenchmarkAscending finds the two even (2 cores
// of a Xeon: 10–14 µs each at 256 values). Below it the radix sort's fixed
// cost — a 256-entry count per varying key byte — loses: 5.4 µs against
// the comparator's 3.4 µs at the 78 values of a 40-page block's 10 %
// sample. Above it the comparator's n log n loses: 35 µs against 21 µs at
// the 496 values of a 100-page block.
const radixCutoff = 256

// sortKeyed sorts keyed by key, then position.
func sortKeyed(keyed []keyedPosition) {
	slices.SortFunc(keyed, func(a, b keyedPosition) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.at, b.at)
	})
}

// radixSort sorts keyed, which is in position order, by key: a stable
// counting pass per byte of the key, least significant first, skipping the
// bytes that are the same in every key. Stability keeps equal keys in
// position order, so the result is sortKeyed's. The sorted pairs are in
// keyed's memory or in the scratch's second buffer; the other is kept as
// the next call's second buffer.
func (s *Scratch) radixSort(keyed []keyedPosition) []keyedPosition {
	spare := slices.Grow(s.spare[:0], len(keyed))[:len(keyed)]
	allSet, anySet := ^uint64(0), uint64(0)
	for _, kp := range keyed {
		allSet &= kp.key
		anySet |= kp.key
	}
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		if (allSet^anySet)>>shift&0xff == 0 {
			continue
		}
		clear(count[:])
		for _, kp := range keyed {
			count[byte(kp.key>>shift)]++
		}
		at := 0
		for d, c := range count {
			count[d] = at
			at += c
		}
		for _, kp := range keyed {
			d := byte(kp.key >> shift)
			spare[count[d]] = kp
			count[d]++
		}
		keyed, spare = spare, keyed
	}
	s.spare = spare
	return keyed
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

// FitKMeans1DOrdered is FitKMeans1D on the scratch's memory, given order
// = Ascending(values). The fit it returns owns its memory.
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
func (s *Scratch) FitKMeans1DOrdered(values []float64, order []int32, k int) (*KMeans1D, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("regions: no values to cluster")
	}
	if k < 1 {
		return nil, fmt.Errorf("regions: k = %d", k)
	}
	// distinct[i] is the i-th distinct finite value and pre[i] sums the
	// values below it.
	distinct := s.distinct[:0]
	pre := append(s.pre[:0], prefix{})
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
	s.distinct, s.pre = distinct, pre
	n := len(distinct)
	if n == 0 {
		return &KMeans1D{Centers: []float64{math.NaN()}}, nil
	}
	k = min(k, n)

	// split[l*(n+1)+b] is where the last of l+1 runs of distinct[:b] starts.
	// Layer 0 is read as zeros, and the search bounds of a layer read cells
	// of the one before that it did not fill: the table and both layers
	// start cleared.
	s.split = slices.Grow(s.split[:0], k*(n+1))[:k*(n+1)]
	s.prev = slices.Grow(s.prev[:0], n+1)[:n+1]
	s.cur = slices.Grow(s.cur[:0], n+1)[:n+1]
	split := s.split
	clear(split)
	clear(s.prev)
	clear(s.cur)
	dp := &layer{pre: pre, prev: s.prev, cur: s.cur}
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
