package regions

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestEqualWidthBins(t *testing.T) {
	b := NewEqualWidthBins(10)
	if b.NumRegions() != 10 {
		t.Fatalf("NumRegions = %d", b.NumRegions())
	}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.05, 0}, {0.1, 1}, {0.55, 5}, {0.99, 9}, {1.0, 9},
		{-0.5, 0}, {1.5, 9},
	}
	for _, tc := range cases {
		if got := b.Region(tc.v); got != tc.want {
			t.Errorf("Region(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	bounds := b.Boundaries()
	if len(bounds) != 10 || bounds[9] != 1 || math.Abs(bounds[0]-0.1) > 1e-12 {
		t.Errorf("Boundaries = %v", bounds)
	}
}

func TestEqualWidthBinsDegenerate(t *testing.T) {
	b := NewEqualWidthBins(0)
	if b.NumRegions() != 1 {
		t.Errorf("k<1 should clamp to 1, got %d", b.NumRegions())
	}
	if b.Region(0.3) != 0 || b.Region(1) != 0 {
		t.Error("single-bin region assignment broken")
	}
}

func TestKMeans1DTwoClusters(t *testing.T) {
	// Values concentrated near 0.1 and 0.9 must be split there.
	values := []float64{0.05, 0.1, 0.12, 0.08, 0.88, 0.9, 0.95, 0.92}
	km, err := FitKMeans1D(values, 2)
	if err != nil {
		t.Fatal(err)
	}
	if km.NumRegions() != 2 {
		t.Fatalf("regions = %d, want 2", km.NumRegions())
	}
	if km.Region(0.1) == km.Region(0.9) {
		t.Error("clearly separated values in same region")
	}
	if km.Region(0.0) != 0 || km.Region(1.0) != 1 {
		t.Error("extremes mis-assigned")
	}
	// Centers must be near the modes.
	if math.Abs(km.Centers[0]-0.0875) > 0.05 || math.Abs(km.Centers[1]-0.9125) > 0.05 {
		t.Errorf("centers = %v", km.Centers)
	}
}

func TestKMeans1DCollapsesDuplicates(t *testing.T) {
	values := []float64{0.5, 0.5, 0.5, 0.5}
	km, err := FitKMeans1D(values, 5)
	if err != nil {
		t.Fatal(err)
	}
	if km.NumRegions() != 1 {
		t.Errorf("identical values should yield one region, got %d", km.NumRegions())
	}
}

func TestKMeans1DErrors(t *testing.T) {
	if _, err := FitKMeans1D(nil, 3); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := FitKMeans1D([]float64{0.5}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKMeans1DRegionsAreIntervalsProperty(t *testing.T) {
	// For any fitted partitioner, region assignment must be monotone in v.
	f := func(raw []float64) bool {
		values := make([]float64, 0, len(raw))
		for _, v := range raw {
			values = append(values, math.Abs(v)-math.Floor(math.Abs(v))) // into [0,1)
		}
		if len(values) < 2 {
			return true
		}
		km, err := FitKMeans1D(values, 4)
		if err != nil {
			return false
		}
		sorted := make([]float64, len(values))
		copy(sorted, values)
		sort.Float64s(sorted)
		prev := 0
		for _, v := range sorted {
			r := km.Region(v)
			if r < prev {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestKMeans1DDeterministicWithSeed: with no RNG to seed, two fits of one
// sample are bit-identical. It also pins how one exact tie resolves:
// {0, 1, 2} in two regions is {0} and {1, 2}, though {0, 1} and {2} err as
// little.
func TestKMeans1DDeterministicWithSeed(t *testing.T) {
	if tie, _ := FitKMeans1D([]float64{2, 0, 1}, 2); !slices.Equal(tie.Centers, []float64{0, 1.5}) {
		t.Errorf("tied splits of {0, 1, 2}: centers %v, want [0 1.5]", tie.Centers)
	}
	values := []float64{0.1, 0.2, 0.5, 0.6, 0.9, 0.3, 0.8, 0.05, 0.5, 0.2}
	a, _ := FitKMeans1D(values, 3)
	b, _ := FitKMeans1D(values, 3)
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	if !same(a.Centers, b.Centers) || !same(a.bounds, b.bounds) {
		t.Fatalf("two fits differ: centers %v / %v, bounds %v / %v", a.Centers, b.Centers, a.bounds, b.bounds)
	}
}

// TestKMeansMatchesReference pins the fit to the exact 1-D k-means optimum.
// On samples of at most 12 distinct finite values — random, on a coarse
// grid with ties, or all equal, some with NaN and ±Inf mixed in — and k
// from 1 to 14, every contiguous split is enumerated (bruteForceKMeans1D):
// the fit has exactly min(k, distinct) regions with strictly increasing
// centers, its squared error about those centers is the least within
// 1e-12 per value, and Region puts every training value in a group of a
// least-error split. Non-finite values go to the first (−Inf) or last
// region. Larger samples hold the fit's error to the full dynamic program.
func TestKMeansMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 3000; trial++ {
		large := trial%20 == 0
		distinctMax, size := 12, 1+rng.Intn(30)
		if large {
			distinctMax, size = 120, 1+rng.Intn(200)
		}
		var pool []float64
		switch trial % 3 {
		case 0: // random
			for range 1 + rng.Intn(distinctMax) {
				pool = append(pool, 1.75*rng.Float64()-0.25)
			}
		case 1: // a coarse grid: heavy ties, equidistant values
			grid := float64(1 + rng.Intn(distinctMax-1))
			for range 1 + rng.Intn(distinctMax) {
				pool = append(pool, math.Round(rng.Float64()*grid)/grid)
			}
		case 2: // all equal
			pool = []float64{rng.Float64()}
		}
		values := make([]float64, size)
		for i := range values {
			values[i] = pool[rng.Intn(len(pool))]
			if trial%4 == 0 && rng.Intn(6) == 0 {
				values[i] = specials[rng.Intn(len(specials))]
			}
		}
		k := 1 + rng.Intn(14)
		km, err := FitKMeans1D(values, k)
		if err != nil {
			t.Fatal(err)
		}
		distinct, runs := finiteDistinct(values)
		want := max(1, min(k, len(distinct)))
		if km.NumRegions() != want || len(km.Centers) != want || len(km.bounds) != want-1 {
			t.Fatalf("trial %d: %d regions (%d centers, %d bounds), want min(k=%d, distinct=%d)",
				trial, km.NumRegions(), len(km.Centers), len(km.bounds), k, len(distinct))
		}
		for i := 1; i < len(km.Centers); i++ {
			if !(km.Centers[i-1] < km.Centers[i]) {
				t.Fatalf("trial %d: centers %v not strictly increasing", trial, km.Centers)
			}
		}
		if km.Region(math.NaN()) != want-1 || km.Region(math.Inf(1)) != want-1 || km.Region(math.Inf(-1)) != 0 {
			t.Fatalf("trial %d: NaN, +Inf, −Inf in regions %d, %d, %d of %d", trial,
				km.Region(math.NaN()), km.Region(math.Inf(1)), km.Region(math.Inf(-1)), want)
		}
		if len(distinct) == 0 {
			continue
		}

		// The split Region makes of the training values, as the first run
		// of each region after the first, and its error about the centers.
		got, starts, m := 0.0, []int{}, 0
		for r, run := range runs {
			g := km.Region(run[0])
			if r > 0 && g != km.Region(runs[r-1][0]) {
				starts = append(starts, r)
			}
			for _, v := range run {
				got += (v - km.Centers[g]) * (v - km.Centers[g])
				m++
			}
		}
		tol := 1e-12 * float64(m)
		var least float64
		var optimal [][]int
		if large {
			least = naiveKMeans1D(runs, want)
		} else {
			least, optimal = bruteForceKMeans1D(runs, want, tol)
		}
		if math.Abs(got-least) > tol {
			t.Fatalf("trial %d (%d values, k=%d): squared error %v, least %v", trial, m, k, got, least)
		}
		if !large && !slices.ContainsFunc(optimal, func(s []int) bool { return slices.Equal(s, starts) }) {
			t.Fatalf("trial %d: Region splits %v at %v, least-error splits %v", trial, distinct, starts, optimal)
		}
	}
}

// TestAscendingMatchesStableSort pins Ascending to a stable sort of the
// positions by cmp.Compare of their values — ascending, NaNs first, −0 and
// +0 equal, ties in position order — on random values with many ties and
// every special value.
func TestAscendingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	specials := []float64{0, math.Copysign(0, -1), 1, -0.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001)}
	for trial := 0; trial < 500; trial++ {
		values := make([]float64, rng.Intn(600))
		for i := range values {
			switch r := rng.Intn(10); {
			case r < 4:
				values[i] = math.Round(rng.Float64()*8) / 8
			case r == 4:
				values[i] = specials[rng.Intn(len(specials))]
			default:
				values[i] = rng.Float64()
			}
		}
		want := make([]int32, len(values))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(values[a], values[b]) })
		if got := Ascending(values); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Ascending(%v) = %v, stable sort %v", trial, values, got, want)
		}
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// Bin 0 ([0,0.5)): 1 of 4 is a link → 0.25.
	// Bin 1 ([0.5,1]): 3 of 4 are links → 0.75.
	p := NewEqualWidthBins(2)
	values := []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9}
	links := []bool{true, false, false, false, true, true, true, false}
	e, err := EstimateAccuracy(p, values, links)
	if err != nil {
		t.Fatal(err)
	}
	// Raw frequencies 0.25 and 0.75 smoothed towards the base rate 0.5
	// with pseudo-count 2: (1 + 2·0.5)/(4+2) = 1/3 and (3 + 2·0.5)/(4+2) = 2/3.
	if math.Abs(e.Accuracy[0]-1.0/3.0) > 1e-12 {
		t.Errorf("region 0 accuracy = %v, want 1/3", e.Accuracy[0])
	}
	if math.Abs(e.Accuracy[1]-2.0/3.0) > 1e-12 {
		t.Errorf("region 1 accuracy = %v, want 2/3", e.Accuracy[1])
	}
	if e.Support[0] != 4 || e.Support[1] != 4 {
		t.Errorf("support = %v", e.Support)
	}
	if math.Abs(e.BaseRate-0.5) > 1e-12 {
		t.Errorf("base rate = %v", e.BaseRate)
	}
	// Decisions follow region majority.
	if e.Linked[p.Region(0.2)] {
		t.Error("low region should not link")
	}
	if !e.Linked[p.Region(0.8)] {
		t.Error("high region should link")
	}
	if math.Abs(e.LinkProbability(0.9)-2.0/3.0) > 1e-12 {
		t.Errorf("LinkProbability = %v", e.LinkProbability(0.9))
	}
	if math.Abs(e.Variation()-1.0/3.0) > 1e-12 {
		t.Errorf("Variation = %v, want 1/3", e.Variation())
	}
}

func TestEstimateAccuracyEmptyRegionFallsBack(t *testing.T) {
	p := NewEqualWidthBins(10)
	// All samples in bin 0; other bins get the base rate.
	values := []float64{0.01, 0.02, 0.03, 0.04}
	links := []bool{true, true, false, false}
	e, err := EstimateAccuracy(p, values, links)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Accuracy[5]-0.5) > 1e-12 {
		t.Errorf("unsupported region accuracy = %v, want base rate 0.5", e.Accuracy[5])
	}
	if e.Variation() != 0 {
		t.Errorf("single supported region: Variation = %v, want 0", e.Variation())
	}
}

func TestEstimateAccuracyErrors(t *testing.T) {
	p := NewEqualWidthBins(2)
	if _, err := EstimateAccuracy(p, []float64{0.5}, []bool{true, false}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := EstimateAccuracy(p, nil, nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestAccuracyEstimateWithKMeansPartition(t *testing.T) {
	// Bimodal similarities: low mode mostly non-links, high mode mostly
	// links — the structure Figure 1 visualizes.
	rng := stats.NewRNG(99)
	var values []float64
	var links []bool
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			values = append(values, 0.1+0.2*rng.Float64())
			links = append(links, rng.Float64() < 0.15)
		} else {
			values = append(values, 0.65+0.3*rng.Float64())
			links = append(links, rng.Float64() < 0.85)
		}
	}
	km, err := FitKMeans1D(values, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := EstimateAccuracy(km, values, links)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy in the lowest region must be below the highest region.
	if e.Accuracy[0] >= e.Accuracy[e.Part.NumRegions()-1] {
		t.Errorf("accuracy not increasing: %v", e.Accuracy)
	}
	// Variation should be large for this structured data.
	if e.Variation() < 0.4 {
		t.Errorf("Variation = %v, want >= 0.4", e.Variation())
	}
}

func TestBoundariesLastIsOne(t *testing.T) {
	km, err := FitKMeans1D([]float64{0.2, 0.4, 0.8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := km.Boundaries()
	if b[len(b)-1] != 1 {
		t.Errorf("last boundary = %v, want 1", b[len(b)-1])
	}
	if len(b) != km.NumRegions() {
		t.Errorf("boundaries length %d != regions %d", len(b), km.NumRegions())
	}
}

// TestEstimateAccuracyOrderedMatches pins the sweep to the search per
// value: on random samples with ties, ±0, ±Inf, NaNs and values on the
// region bounds and one ulp to either side, fitted to k-means
// regions of every count and, when free of NaNs, to equal-width bins,
// EstimateAccuracyOrdered returns EstimateAccuracy's estimate.
func TestEstimateAccuracyOrderedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var s Scratch
	for trial := 0; trial < 500; trial++ {
		values := randomSample(rng, 1+rng.Intn(600))
		links := make([]bool, len(values))
		for i := range links {
			links[i] = rng.Intn(3) == 0
		}
		km, err := s.FitKMeans1DOrdered(values, s.Ascending(values), 1+rng.Intn(12))
		if err != nil {
			t.Fatal(err)
		}
		// Values on the fitted bounds and one ulp to either side.
		for _, b := range km.bounds {
			for _, v := range []float64{b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1))} {
				values[rng.Intn(len(values))] = v
			}
		}
		order := s.Ascending(values)
		parts := []Partitioner{km}
		if !slices.ContainsFunc(values, math.IsNaN) { // EqualWidthBins.Region has no region for NaN
			parts = append(parts, NewEqualWidthBins(10))
		}
		for _, p := range parts {
			want, err := EstimateAccuracy(p, values, links)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EstimateAccuracyOrdered(p, values, order, links)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: the sweep estimates %+v, the search %+v", trial, got, want)
			}
		}
	}
}

// TestRadixSortMatchesComparator pins the radix sort to the comparator on
// samples of radixCutoff values and more whose keys differ in one byte
// only — runs of adjacent floats around a few bases, whichever byte the
// run crosses — as well as in all of them, and on every special value.
func TestRadixSortMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := radixCutoff + rng.Intn(3*radixCutoff)
		values := randomSample(rng, n)
		for i := range values {
			if rng.Intn(2) == 0 {
				base := math.Float64frombits(math.Float64bits(0.5) + uint64(rng.Intn(4))<<(8*rng.Intn(7)))
				values[i] = math.Float64frombits(math.Float64bits(base) + uint64(rng.Intn(300)))
			}
		}
		keyed := make([]keyedPosition, n)
		for i, v := range values {
			keyed[i] = keyedPosition{orderKey(v), int32(i)}
		}
		want := slices.Clone(keyed)
		sortKeyed(want)
		if got := s.radixSort(keyed); !slices.Equal(got, want) {
			t.Fatalf("trial %d: the radix sort orders %v as %v, the comparator %v", trial, values, got, want)
		}
	}
}

// BenchmarkAscending times Ascending's two sorts on the training samples
// of the decision stage: 78 values (the 10 % sample of a 40-page block),
// 496 (a 100-page block) and 1,431 (a 170-page block), drawn by
// randomSample, ties and special values included. It sets radixCutoff: on 2
// cores of a Xeon the comparator takes 3.4, 35 and 170–260 µs and the
// radix sort 5.4, 21 and 60–67 µs; the two are even near 256 values.
func BenchmarkAscending(b *testing.B) {
	for _, n := range []int{78, 496, 1431} {
		values := randomSample(rand.New(rand.NewSource(int64(n))), n)
		var s Scratch
		keyed := make([]keyedPosition, n)
		fill := func() {
			for i, v := range values {
				keyed[i] = keyedPosition{orderKey(v), int32(i)}
			}
		}
		b.Run(fmt.Sprintf("comparator/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fill()
				sortKeyed(keyed)
			}
		})
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fill()
				keyed = s.radixSort(keyed)
			}
		})
	}
}
