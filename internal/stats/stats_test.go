package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
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
