package regions

import (
	"fmt"
	"iter"
)

// AccuracyEstimate is the per-region accuracy of link existence, fitted on
// a labeled training sample (Section IV-A): for region r, Accuracy[r] is
// the fraction of training pairs whose similarity fell in r that are true
// links. When Accuracy[r] < 0.5 the majority of pairs in the region are
// non-links, so the region votes against an edge.
type AccuracyEstimate struct {
	// Part is the partitioner the estimate was fitted over.
	Part Partitioner
	// Accuracy[r] is the estimated link probability in region r; regions
	// with no training support fall back to the global base rate.
	Accuracy []float64
	// Support[r] is the number of training pairs observed in region r.
	Support []int
	// BaseRate is the overall fraction of positive training pairs, the
	// fallback for unsupported regions.
	BaseRate float64
	// Linked[r] is the criterion's decision for region r, fixed when the
	// estimate is fitted: Accuracy[r] >= 0.5, the region's majority class is
	// "link".
	Linked []bool
}

// smoothingWeight is the pseudo-count pulling low-support regions towards
// the base rate. The paper estimates raw per-region frequencies; with the
// very small training samples (10% of a 100-page block gives ~45 pairs) a
// light Laplace-style prior stops single-pair regions from flipping
// decisions. Regions with solid support are barely affected.
const smoothingWeight = 2.0

// EstimateAccuracy fits per-region link accuracies from parallel slices of
// training similarity values and link labels, smoothing each region's
// frequency towards the global base rate with a pseudo-count of
// smoothingWeight.
func EstimateAccuracy(p Partitioner, values []float64, links []bool) (*AccuracyEstimate, error) {
	return estimate(p, values, links, func(yield func(int, int) bool) {
		for i, v := range values {
			if !yield(i, p.Region(v)) {
				return
			}
		}
	})
}

// EstimateAccuracyOrdered is EstimateAccuracy given order =
// Ascending(values), and returns the same estimate. Over a KMeans1D it
// finds the values' regions in one sweep of the sample in ascending order
// against the region bounds, instead of a search per value: Region is the
// number of bounds below a value, and NaN, which Ascending puts first,
// falls in the last region.
func EstimateAccuracyOrdered(p Partitioner, values []float64, order []int32, links []bool) (*AccuracyEstimate, error) {
	km, ok := p.(*KMeans1D)
	if !ok {
		return EstimateAccuracy(p, values, links)
	}
	return estimate(p, values, links, func(yield func(int, int) bool) {
		r := 0
		for _, at := range order {
			v, region := values[at], len(km.bounds)
			if v == v {
				for r < len(km.bounds) && km.bounds[r] < v {
					r++
				}
				region = r
			}
			if !yield(int(at), region) {
				return
			}
		}
	})
}

// estimate is EstimateAccuracy given the region of every value, as pairs
// (position, region) in any order.
func estimate(p Partitioner, values []float64, links []bool, regions iter.Seq2[int, int]) (*AccuracyEstimate, error) {
	if len(values) != len(links) {
		return nil, fmt.Errorf("regions: %d values but %d labels", len(values), len(links))
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("regions: empty training sample")
	}
	k := p.NumRegions()
	pos := make([]int, k)
	support := make([]int, k)
	totalPos := 0
	for i, r := range regions {
		support[r]++
		if links[i] {
			pos[r]++
			totalPos++
		}
	}
	base := float64(totalPos) / float64(len(values))
	acc := make([]float64, k)
	linked := make([]bool, k)
	for r := 0; r < k; r++ {
		acc[r] = base
		if support[r] > 0 {
			acc[r] = (float64(pos[r]) + smoothingWeight*base) /
				(float64(support[r]) + smoothingWeight)
		}
		linked[r] = acc[r] >= 0.5
	}
	return &AccuracyEstimate{Part: p, Accuracy: acc, Support: support, BaseRate: base, Linked: linked}, nil
}

// LinkProbability returns the estimated probability that a pair with
// similarity v is a true link.
func (e *AccuracyEstimate) LinkProbability(v float64) float64 {
	return e.Accuracy[e.Part.Region(v)]
}

// Variation returns max − min of the per-region accuracies over supported
// regions, quantifying the paper's observation that "the accuracy values
// varied significantly" across regions. It returns 0 when fewer than two
// regions have support.
func (e *AccuracyEstimate) Variation() float64 {
	lo, hi := 2.0, -1.0
	supported := 0
	for r, s := range e.Support {
		if s == 0 {
			continue
		}
		supported++
		if e.Accuracy[r] < lo {
			lo = e.Accuracy[r]
		}
		if e.Accuracy[r] > hi {
			hi = e.Accuracy[r]
		}
	}
	if supported < 2 {
		return 0
	}
	return hi - lo
}
