package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almostEqual(got, tc.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if got, err := Min(xs); err != nil || got != -2 {
		t.Errorf("Min = %v, %v, want -2, nil", got, err)
	}
	if got, err := Max(xs); err != nil || got != 7 {
		t.Errorf("Max = %v, %v, want 7, nil", got, err)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestQuantileMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	med, err := Quantile(xs, 0.5)
	if err != nil || !almostEqual(med, 2.5, 1e-12) {
		t.Errorf("Quantile(xs, 0.5) = %v, %v; want 2.5", med, err)
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 4 {
		t.Errorf("Quantile extremes = %v, %v; want 1, 4", q0, q1)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile out of range: want error")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("Quantile empty err = %v, want ErrEmpty", err)
	}
	single, _ := Quantile([]float64{7}, 0.3)
	if single != 7 {
		t.Errorf("Quantile singleton = %v, want 7", single)
	}
}

func TestHarmonic(t *testing.T) {
	if got := Harmonic(0, 0); got != 0 {
		t.Errorf("Harmonic(0,0) = %v, want 0", got)
	}
	if got := Harmonic(1, 1); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Harmonic(1,1) = %v, want 1", got)
	}
	if got := Harmonic(0.5, 1); !almostEqual(got, 2.0/3.0, 1e-12) {
		t.Errorf("Harmonic(0.5,1) = %v, want 2/3", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(-1, 0, 1); got != 0 {
		t.Errorf("Clamp(-1) = %v", got)
	}
	if got := Clamp(2, 0, 1); got != 1 {
		t.Errorf("Clamp(2) = %v", got)
	}
	if got := Clamp(0.4, 0, 1); got != 0.4 {
		t.Errorf("Clamp(0.4) = %v", got)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return Mean(raw) == 0
		}
		for _, x := range raw {
			// Skip pathological floats whose sums overflow or are undefined.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		m := Mean(raw)
		lo, _ := Min(raw)
		hi, _ := Max(raw)
		return m >= lo-1e-9*math.Abs(lo)-1e-9 && m <= hi+1e-9*math.Abs(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// floorOf wraps the stats error across a call boundary the way the
// service layers do before surfacing it.
func floorOf(xs []float64) (float64, error) {
	m, err := Quantile(xs, 0)
	if err != nil {
		return 0, fmt.Errorf("computing floor: %w", err)
	}
	return m, nil
}

// TestErrEmptyMatchesThroughWrap pins the behavior the errwrap linter
// exists to protect: a sentinel wrapped with %w at a call boundary still
// matches via errors.Is, while the direct comparison the linter bans
// silently stops matching.
func TestErrEmptyMatchesThroughWrap(t *testing.T) {
	_, err := floorOf(nil)
	if err == nil {
		t.Fatal("floorOf(nil) = nil error, want wrapped ErrEmpty")
	}
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("floorOf(nil) error = %v, want errors.Is match with ErrEmpty", err)
	}
	// erlint:ignore demonstrating the failure mode the lint rule prevents
	if err == ErrEmpty {
		t.Fatal("wrapped error compares == to ErrEmpty; the wrap this test guards is gone")
	}
}
