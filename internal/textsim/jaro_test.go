package textsim

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"a", "", 0},
		{"", "a", 0},
		{"abc", "abc", 1},
		{"martha", "marhta", 0.944444},
		{"dixon", "dicksonx", 0.766667},
		{"jellyfish", "smellyfish", 0.896296},
		{"abc", "xyz", 0},
	}
	for _, tc := range cases {
		if got := Jaro(tc.a, tc.b); math.Abs(got-tc.want) > 1e-5 {
			t.Errorf("Jaro(%q,%q) = %.6f, want %.6f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.961111},
		{"dixon", "dicksonx", 0.813333},
		{"dwayne", "duane", 0.84},
	}
	for _, tc := range cases {
		if got := JaroWinkler(tc.a, tc.b); math.Abs(got-tc.want) > 1e-5 {
			t.Errorf("JaroWinkler(%q,%q) = %.6f, want %.6f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return math.Abs(Jaro(a, b)-Jaro(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		s := Jaro(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		s := JaroWinkler(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerIdentityProperty(t *testing.T) {
	f := func(a string) bool { return JaroWinkler(a, a) == 1 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerNeverBelowJaro(t *testing.T) {
	f := func(a, b string) bool {
		return JaroWinkler(a, b) >= Jaro(a, b)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaroWinklerParamsClamping(t *testing.T) {
	// Scaling factor above 0.25 is clamped so the result stays within [0,1].
	got := JaroWinklerParams("aaaa", "aaab", 5.0, 4)
	if got < 0 || got > 1 {
		t.Errorf("clamped params result %v out of [0,1]", got)
	}
	// Negative p behaves like p = 0 (plain Jaro).
	if got := JaroWinklerParams("martha", "marhta", -1, 4); math.Abs(got-Jaro("martha", "marhta")) > 1e-12 {
		t.Errorf("negative p should reduce to Jaro, got %v", got)
	}
	// maxPrefix = 0 also reduces to Jaro.
	if got := JaroWinklerParams("martha", "marhta", 0.1, 0); math.Abs(got-Jaro("martha", "marhta")) > 1e-12 {
		t.Errorf("maxPrefix=0 should reduce to Jaro, got %v", got)
	}
}

func TestJaroNoMatches(t *testing.T) {
	if got := Jaro("ab", "cd"); got != 0 {
		t.Errorf("no matches should be 0, got %v", got)
	}
}

// referenceJaro is the allocating Jaro that Jaro replaced: four []rune
// conversions and two []bool per JaroWinkler call. It is kept as the
// specification the stack-buffer version must match bit for bit.
func referenceJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	matchDist := max(la, lb)/2 - 1
	if matchDist < 0 {
		matchDist = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		for j := max(0, i-matchDist); j < min(lb, i+matchDist+1); j++ {
			if bMatched[j] || ra[i] != rb[j] {
				continue
			}
			aMatched[i], bMatched[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

func referenceJaroWinkler(a, b string) float64 {
	j := referenceJaro(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func TestJaroMatchesReference(t *testing.T) {
	long := strings.Repeat("maria de la concepción ", 4) // 92 runes: past the stack buffers
	names := []string{
		"", "a", "john smith", "jon smyth", "smith john", "andrew mccallum", "a. mccallum",
		"martha", "marhta", "dixon", "dicksonx",
		"josé garcía", "jose garcia", "søren kierkegård", "soren kierkegaard", "王小明", "王晓明",
		"\xffbad\xfeutf8", "bad utf8",
		long, long[3:] + "x", strings.Repeat("a", 64), strings.Repeat("a", 65), strings.Repeat("ab", 40),
	}
	for _, a := range names {
		for _, b := range names {
			if got, want := Jaro(a, b), referenceJaro(a, b); got != want {
				t.Errorf("Jaro(%q,%q) = %v, reference %v", a, b, got, want)
			}
			if got, want := JaroWinkler(a, b), referenceJaroWinkler(a, b); got != want {
				t.Errorf("JaroWinkler(%q,%q) = %v, reference %v", a, b, got, want)
			}
		}
	}
}

// TestJaroBitsMatchesLoop is the differential test of jaro's bit-parallel
// form against the loop it replaces for short ASCII input: on 200,000
// random pairs over 2- to 8-letter alphabets (so runes repeat inside every
// window), lengths 0 to 70 across the 64-rune edge and a non-ASCII rune
// mixed into either side, jaro equals jaroLoop bit for bit.
func TestJaroBitsMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	word := func(alphabet []rune) []rune {
		n := rng.Intn(jaroStack + 1)
		if rng.Intn(4) == 0 {
			n = rng.Intn(71)
		}
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	bitPath := 0
	const pairs = 200_000
	for trial := 0; trial < pairs; trial++ {
		alphabet := []rune("abcdefgh")[:2+rng.Intn(7)]
		aAlpha, bAlpha := alphabet, alphabet
		switch rng.Intn(4) {
		case 0:
			aAlpha = append(slices.Clone(alphabet), 'é')
		case 1:
			bAlpha = append(slices.Clone(alphabet), '王')
		}
		ra, rb := word(aAlpha), word(bAlpha)
		got, want := jaro(ra, rb), jaroLoop(ra, rb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("jaro(%q, %q) = %v, loop %v", string(ra), string(rb), got, want)
		}
		if _, ok := jaroBits(ra, rb); ok && len(ra) > 0 && len(rb) > 0 && len(ra) <= jaroStack && len(rb) <= jaroStack {
			bitPath++
		}
	}
	if bitPath < pairs/2 {
		t.Errorf("only %d of %d pairs took the bit-parallel form", bitPath, pairs)
	}
}

// TestJaroWinklerDoesNotAllocate pins the pair-loop claim: names up to 64
// runes (every name the extractor produces) compare without touching the
// heap.
func TestJaroWinklerDoesNotAllocate(t *testing.T) {
	a, b := "søren kierkegård", strings.Repeat("é", 64)
	if allocs := testing.AllocsPerRun(100, func() { JaroWinkler(a, b); JaroWinkler(b, a) }); allocs != 0 {
		t.Errorf("JaroWinkler allocates %v times per run, want 0", allocs)
	}
}
