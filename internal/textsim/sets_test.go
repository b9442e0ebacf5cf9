package textsim

import (
	"math"
	"math/rand"
	"testing"
)

func TestSetJaccard(t *testing.T) {
	if got := SetJaccard(nil, nil); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := SetJaccard([]string{"a"}, nil); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
	got := SetJaccard([]string{"a", "b", "c"}, []string{"b", "c", "d"})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("= %v, want 0.5", got)
	}
	// Duplicates are ignored.
	got = SetJaccard([]string{"a", "a", "b"}, []string{"a", "b", "b"})
	if got != 1 {
		t.Errorf("duplicate handling = %v, want 1", got)
	}
}

// TestSetJaccardMatchesMaps pins SetJaccard bit for bit to the map count on
// random slices over a small alphabet, so duplicates and shared strings are
// common.
func TestSetJaccardMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := []string{"", "a", "b", "people", "~smith", "index.html", "B"}
	slice := func() []string {
		out := make([]string, rng.Intn(7))
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := slice(), slice()
		if got, want := SetJaccard(a, b), setJaccardByMaps(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SetJaccard(%q, %q) = %v, map count %v", a, b, got, want)
		}
	}
}

func TestSetOverlapCount(t *testing.T) {
	if got := SetOverlapCount(nil, nil); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
	got := SetOverlapCount([]string{"ibm", "epfl"}, []string{"epfl", "mit", "ibm", "ibm"})
	if got != 2 {
		t.Errorf("= %d, want 2", got)
	}
}

func TestNormalizedOverlap(t *testing.T) {
	if got := NormalizedOverlap(0, 2); got != 0 {
		t.Errorf("zero count = %v, want 0", got)
	}
	if got := NormalizedOverlap(2, 2); got != 0.5 {
		t.Errorf("count==half = %v, want 0.5", got)
	}
	if got := NormalizedOverlap(5, 0); got != 1 {
		t.Errorf("half=0 = %v, want 1", got)
	}
	// Monotone increasing in count.
	prev := 0.0
	for c := 1; c < 20; c++ {
		cur := NormalizedOverlap(c, 2)
		if cur <= prev {
			t.Fatalf("not monotone at count %d: %v <= %v", c, cur, prev)
		}
		if cur >= 1 {
			t.Fatalf("must stay below 1: %v", cur)
		}
		prev = cur
	}
}
