package textsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNGrams(t *testing.T) {
	p := NGrams("ab", 2)
	// Padded: #ab# → "#a", "ab", "b#"
	want := []string{"#a", "ab", "b#"}
	if len(p) != 3 {
		t.Fatalf("profile size = %d, want 3: %v", len(p), p)
	}
	for _, g := range want {
		if p[g] != 1 {
			t.Errorf("gram %q count = %d, want 1", g, p[g])
		}
	}
	if len(NGrams("", 2)) != 0 {
		t.Error("empty string should give empty profile")
	}
	if len(NGrams("abc", 0)) != 0 {
		t.Error("n=0 should give empty profile")
	}
	uni := NGrams("aab", 1)
	if uni["a"] != 2 || uni["b"] != 1 {
		t.Errorf("unigram counts wrong: %v", uni)
	}
}

func TestNGramsMultiplicity(t *testing.T) {
	p := NGrams("aaa", 2)
	// #aaa# → #a, aa, aa, a#
	if p["aa"] != 2 {
		t.Errorf(`count of "aa" = %d, want 2`, p["aa"])
	}
}

func TestJaccardNGram(t *testing.T) {
	if got := JaccardNGram("", "", 2); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := JaccardNGram("night", "night", 2); got != 1 {
		t.Errorf("identical = %v, want 1", got)
	}
	got := JaccardNGram("night", "nacht", 2)
	if got <= 0 || got >= 1 {
		t.Errorf("related words should be strictly between 0 and 1: %v", got)
	}
}

func TestDiceVsJaccardOrdering(t *testing.T) {
	// Dice >= Jaccard always (for the same sets).
	f := func(a, b string) bool {
		j := JaccardNGram(a, b, 2)
		d := DiceNGram(a, b, 2)
		return d >= j-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapNGram(t *testing.T) {
	if got := OverlapNGram("", "", 2); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := OverlapNGram("abc", "", 2); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
	// A substring's grams are almost all contained in the superstring; for a
	// shared prefix-padded word the overlap coefficient is high.
	got := OverlapNGram("data", "database", 2)
	if got < 0.5 {
		t.Errorf("substring overlap = %v, want >= 0.5", got)
	}
}

func TestCosineNGram(t *testing.T) {
	if got := CosineNGram("", "", 2); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := CosineNGram("same", "same", 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := CosineNGram("abc", "", 2); got != 0 {
		t.Errorf("one empty = %v, want 0", got)
	}
}

func TestNGramSimilaritiesBoundsAndSymmetry(t *testing.T) {
	sims := map[string]func(a, b string) float64{
		"jaccard": func(a, b string) float64 { return JaccardNGram(a, b, 3) },
		"dice":    func(a, b string) float64 { return DiceNGram(a, b, 3) },
		"overlap": func(a, b string) float64 { return OverlapNGram(a, b, 3) },
		"cosine":  func(a, b string) float64 { return CosineNGram(a, b, 3) },
	}
	for name, sim := range sims {
		f := func(a, b string) bool {
			s := sim(a, b)
			if s < 0 || s > 1 {
				return false
			}
			return math.Abs(s-sim(b, a)) < 1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

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
