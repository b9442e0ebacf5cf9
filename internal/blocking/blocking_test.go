package blocking

import (
	"reflect"
	"testing"
	"testing/quick"
)

func recs(keys ...string) []Record {
	out := make([]Record, len(keys))
	for i, k := range keys {
		out[i] = Record{ID: i, Keys: []string{k}}
	}
	return out
}

func TestExactKey(t *testing.T) {
	records := recs("john smith", "John  Smith", "mary cohen", "john smith")
	pairs := ExactKey{}.Candidates(records)
	// Records 0, 1, 3 share the normalized key.
	want := []Pair{{0, 1}, {0, 3}, {1, 3}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestExactKeyMultipleKeys(t *testing.T) {
	records := []Record{
		{ID: 0, Keys: []string{"a", "b"}},
		{ID: 1, Keys: []string{"b", "c"}},
		{ID: 2, Keys: []string{"c"}},
	}
	pairs := ExactKey{}.Candidates(records)
	want := []Pair{{0, 1}, {1, 2}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestExactKeyDuplicateKeysInOneRecord(t *testing.T) {
	records := []Record{
		{ID: 0, Keys: []string{"a", "a", "A"}},
		{ID: 1, Keys: []string{"a"}},
	}
	pairs := ExactKey{}.Candidates(records)
	if len(pairs) != 1 {
		t.Errorf("duplicate keys must not duplicate pairs: %v", pairs)
	}
}

func TestTokenBlocking(t *testing.T) {
	records := recs("john smith", "j smith", "mary cohen", "mary johnson")
	pairs := TokenBlocking{}.Candidates(records)
	// "smith" joins 0,1; "mary" joins 2,3; "j" is below min length.
	want := []Pair{{0, 1}, {2, 3}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestTokenBlockingHigherRecallThanExact(t *testing.T) {
	records := recs("john smith", "smith, john", "j. smith")
	exact := ExactKey{}.Candidates(records)
	token := TokenBlocking{}.Candidates(records)
	if len(token) < len(exact) {
		t.Errorf("token blocking recall %d < exact %d", len(token), len(exact))
	}
	// All three share "smith".
	if len(token) != 3 {
		t.Errorf("token pairs = %v, want all 3", token)
	}
}

func TestCanopy(t *testing.T) {
	records := recs("john smith", "john smith jr", "mary cohen", "mary cohen md")
	pairs := Canopy{Loose: 0.3, Tight: 0.8}.Candidates(records)
	// The two smiths and the two cohens form canopies; across groups the
	// token Jaccard is 0.
	want := []Pair{{0, 1}, {2, 3}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestCanopyLooseZeroMergesAll(t *testing.T) {
	records := recs("a", "b", "c")
	pairs := Canopy{Loose: 0, Tight: 1}.Candidates(records)
	if len(pairs) != 3 {
		t.Errorf("loose=0 should produce all pairs: %v", pairs)
	}
}

func TestCanopyCustomSim(t *testing.T) {
	records := recs("x", "y")
	always := func(a, b string) float64 { return 1 }
	pairs := Canopy{Sim: always, Loose: 0.5, Tight: 0.5}.Candidates(records)
	if len(pairs) != 1 {
		t.Errorf("custom sim ignored: %v", pairs)
	}
}

func TestAllSchemesPairInvariantsProperty(t *testing.T) {
	schemes := map[string]Scheme{
		"exact":  ExactKey{},
		"token":  TokenBlocking{},
		"canopy": Canopy{Loose: 0.4, Tight: 0.8},
	}
	keysets := []string{"john smith", "mary cohen", "j smith", "cohen", "bob lee", ""}
	f := func(sel []byte) bool {
		records := make([]Record, 0, len(sel))
		for i, b := range sel {
			if i >= 12 {
				break
			}
			records = append(records, Record{ID: i, Keys: []string{keysets[int(b)%len(keysets)]}})
		}
		for _, s := range schemes {
			pairs := s.Candidates(records)
			seen := make(map[Pair]bool)
			for _, p := range pairs {
				if p.A >= p.B {
					return false // ordered
				}
				if p.A < 0 || p.B >= len(records) {
					return false // in range
				}
				if seen[p] {
					return false // deduplicated
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchemesDeterministic(t *testing.T) {
	records := recs("john smith", "j smith", "john smyth", "mary cohen", "cohen")
	for name, s := range map[string]Scheme{
		"exact":  ExactKey{},
		"token":  TokenBlocking{},
		"canopy": Canopy{Loose: 0.3, Tight: 0.7},
	} {
		a := s.Candidates(records)
		b := s.Candidates(records)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s is not deterministic", name)
		}
	}
}

// TestBlockID pins what block fingerprints rely on: HashKey over member keys
// is stable and separates every distinct key list.
func TestBlockID(t *testing.T) {
	base := HashKey("a", "b", "c")
	if got := HashKey("a", "b", "c"); got != base {
		t.Errorf("HashKey is not stable: %x vs %x", got, base)
	}
	distinct := [][]string{
		{},
		{"a"},
		{"a", "b"},
		{"a", "b", "c"},
		{"b", "a"}, // order matters
		{"ab"},     // separator disambiguates concatenation
		{"a", "bc"},
		{"ab", "c"},
		{"a", "b", "c", ""}, // trailing empty key still changes identity
	}
	seen := map[uint64][]string{}
	for _, keys := range distinct {
		id := HashKey(keys...)
		if prev, dup := seen[id]; dup {
			t.Errorf("HashKey collision between %q and %q", prev, keys)
		}
		seen[id] = keys
	}
	if _, dup := seen[base]; !dup {
		// {"a","b","c"} is in the distinct set; base must match it.
		t.Errorf("HashKey(%x) missing from distinct set", base)
	}
}

func TestHashKeyAndCombineIDs(t *testing.T) {
	if HashKey("a", "bc") == HashKey("ab", "c") {
		t.Error("HashKey does not separate parts")
	}
	a, b := HashKey("x"), HashKey("y")
	if CombineIDs([]uint64{a, b}) == CombineIDs([]uint64{b, a}) {
		t.Error("CombineIDs is order-insensitive")
	}
	if CombineIDs([]uint64{a}) == CombineIDs([]uint64{a, a}) {
		t.Error("CombineIDs ignores multiplicity")
	}
	if CombineIDs([]uint64{a, b}) != CombineIDs([]uint64{a, b}) {
		t.Error("CombineIDs is not stable")
	}
}
