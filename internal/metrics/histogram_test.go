package metrics

import (
	"sync"
	"testing"
	"time"
)

// walked registers a histogram, lets fill observe into it, and reads it
// back through the registry walk both renderers format.
func walked(t *testing.T, fill func(h *Histogram)) *histogramRead {
	t.Helper()
	r := NewRegistry()
	fill(r.Histogram("test_seconds", "T."))
	var read []point
	r.walk(func(_ family, points []point) { read = append(read, points...) })
	if len(read) != 1 || read[0].hist == nil {
		t.Fatalf("walk = %+v, want one histogram point", read)
	}
	return read[0].hist
}

func TestHistogramBuckets(t *testing.T) {
	s := walked(t, func(h *Histogram) {
		h.Observe(500 * time.Nanosecond) // <= 1µs bucket
		h.Observe(time.Microsecond)      // still the 1µs bucket (inclusive bound)
		h.Observe(3 * time.Microsecond)  // 4µs bucket
		h.Observe(time.Hour)             // beyond the last bound: overflow
	})
	if s.count() != 4 {
		t.Fatalf("count = %d, want 4", s.count())
	}
	if bucketLe(0) != "1e-06" || s.cumulative[0] != 2 {
		t.Fatalf("first bucket = le %s count %d, want le 1e-06 count 2", bucketLe(0), s.cumulative[0])
	}
	if s.cumulative[2] != 3 || s.cumulative[histogramBuckets-1] != 3 {
		t.Fatalf("4µs and last finite buckets = %d, %d, want 3, 3", s.cumulative[2], s.cumulative[histogramBuckets-1])
	}
	if bucketLe(histogramBuckets) != "+Inf" || s.cumulative[histogramBuckets] != 4 {
		t.Fatalf("overflow bucket = le %s count %d, want le +Inf cumulative count 4",
			bucketLe(histogramBuckets), s.cumulative[histogramBuckets])
	}
	// Cumulative counts never decrease.
	for i := 1; i < len(s.cumulative); i++ {
		if s.cumulative[i] < s.cumulative[i-1] {
			t.Fatalf("bucket %d count %d < previous %d", i, s.cumulative[i], s.cumulative[i-1])
		}
	}
	if s.sum < 3600 {
		t.Fatalf("sum = %g s, want >= 3600", s.sum)
	}
}

// bucketIndexRef is the pre-optimization reference: a linear scan over the
// inclusive upper bounds. -1 means overflow.
func bucketIndexRef(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	for i := range bucketBounds {
		if d <= bucketBounds[i] {
			return i
		}
	}
	return -1
}

// bucketOf observes d into a fresh histogram and reports which bucket the
// O(1) index computation chose (-1 = overflow).
func bucketOf(t *testing.T, d time.Duration) int {
	t.Helper()
	var h Histogram
	h.Observe(d)
	if h.overflow.Load() == 1 {
		return -1
	}
	for i := range h.counts {
		if h.counts[i].Load() == 1 {
			return i
		}
	}
	t.Fatalf("Observe(%v) landed in no bucket", d)
	return 0
}

// TestHistogramBucketBoundaries pins the O(1) bits.Len64 bucket index to
// the linear-scan reference at every boundary: zero, each exact bucket
// bound, one nanosecond past each bound, and overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []time.Duration{0, 1, 999, 1000, 1001}
	for i := range bucketBounds {
		cases = append(cases, bucketBounds[i], bucketBounds[i]+1)
	}
	cases = append(cases, bucketBounds[histogramBuckets-1]*2, time.Hour, -time.Second)
	for _, d := range cases {
		want := bucketIndexRef(d)
		if got := bucketOf(t, d); got != want {
			t.Errorf("Observe(%v): bucket %d, want %d", d, got, want)
		}
	}
	// Spot-check the exact-bound contract independently of the reference:
	// a bound is inclusive, one nanosecond more spills into the next bucket.
	if got := bucketOf(t, bucketBounds[7]); got != 7 {
		t.Errorf("exact bound %v: bucket %d, want 7", bucketBounds[7], got)
	}
	if got := bucketOf(t, bucketBounds[7]+1); got != 8 {
		t.Errorf("bound+1ns %v: bucket %d, want 8", bucketBounds[7]+1, got)
	}
	if got := bucketOf(t, bucketBounds[histogramBuckets-1]+1); got != -1 {
		t.Errorf("past the last bound: bucket %d, want overflow", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := walked(t, func(*Histogram) {})
	if *s != (histogramRead{}) {
		t.Fatalf("empty histogram read = %+v, want zero", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	const goroutines, per = 8, 1000
	s := walked(t, func(h *Histogram) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					h.Observe(time.Duration(g*i) * time.Microsecond)
				}
			}(g)
		}
		wg.Wait()
	})
	if got := s.count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}
