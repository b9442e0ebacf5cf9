// Package metrics holds the service's in-process observability
// primitives: a fixed-bucket log-scale latency histogram cheap enough to
// sit on the hot read path (two atomic adds per observation) and a small
// self-registering instrument Registry whose one walk over its families
// renders every counter, gauge and histogram twice: in the Prometheus text
// exposition format (GET /metrics) and as JSON (GET /v1/stats) — all
// dependency-free.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histogramBuckets is the number of finite buckets. Bucket i covers
// durations up to 1µs·2^i, so the 26 buckets span 1µs to ~33.5s — wide
// enough for a microsecond index lookup and a multi-second full resolve on
// one scale. Observations beyond the last bound land in the overflow
// bucket.
const histogramBuckets = 26

// bucketBounds are the inclusive upper bounds, precomputed once.
var bucketBounds = func() [histogramBuckets]time.Duration {
	var b [histogramBuckets]time.Duration
	d := time.Microsecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// Histogram is a concurrency-safe latency histogram over fixed log-scale
// buckets (powers of two from 1µs). The zero value is ready to use.
type Histogram struct {
	counts   [histogramBuckets]atomic.Int64
	overflow atomic.Int64
	sumNanos atomic.Int64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.sumNanos.Add(int64(d))
	// Bucket i is the smallest with d <= 1µs·2^i. With u the duration in
	// microseconds rounded up, that is the bit length of u-1 — O(1) where
	// the old linear scan walked up to 26 bounds per observation on the
	// hot read path.
	u := (uint64(d) + 999) / 1000
	if u <= 1 {
		h.counts[0].Add(1)
		return
	}
	i := bits.Len64(u - 1)
	if i >= histogramBuckets {
		h.overflow.Add(1)
		return
	}
	h.counts[i].Add(1)
}

// histogramRead is one histogram read once for rendering: the cumulative
// count at each finite bound and then at +Inf, which is the observation
// count, and the observed time in seconds.
type histogramRead struct {
	cumulative [histogramBuckets + 1]int64
	sum        float64
}

// count is the number of observations.
func (r *histogramRead) count() int64 { return r.cumulative[histogramBuckets] }

// read copies the buckets once. Observations landing between the bucket
// loads are either counted or not, but the count is the cumulative total
// of the loads, so the copy never disagrees with itself.
func (h *Histogram) read() *histogramRead {
	r := &histogramRead{sum: float64(h.sumNanos.Load()) / 1e9}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		r.cumulative[i] = cum
	}
	r.cumulative[histogramBuckets] = cum + h.overflow.Load()
	return r
}
