package blocking

import (
	"reflect"
	"strings"
	"testing"
)

func TestNewCanopyValidates(t *testing.T) {
	if err := (Canopy{Loose: 0.3, Tight: 0.8}).Validate(); err != nil {
		t.Fatalf("loose 0.3 tight 0.8: %v", err)
	}
	cases := []struct {
		loose, tight float64
		want         string
	}{
		{0.8, 0.3, "tight"},     // tight below loose
		{-0.1, 0.5, "[0,1]"},    // loose out of range
		{0.3, 1.5, "[0,1]"},     // tight out of range
		{2, 3, "[0,1]"},         // both out of range
		{0.5, 0.49999, "tight"}, // barely inverted
	}
	for _, c := range cases {
		if err := (Canopy{Loose: c.loose, Tight: c.tight}).Validate(); err == nil {
			t.Errorf("loose=%g tight=%g: accepted, want an error", c.loose, c.tight)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("loose=%g tight=%g: error %q does not mention %q", c.loose, c.tight, err, c.want)
		}
	}
}

// TestIndexKeysMatchCandidates pins the KeyedScheme contract: records are
// candidates exactly when their IndexKeys intersect.
func TestIndexKeysMatchCandidates(t *testing.T) {
	records := []Record{
		{ID: 0, Keys: []string{"John Smith"}},
		{ID: 1, Keys: []string{"Smith, J."}},
		{ID: 2, Keys: []string{"Mary Jones", "M. Jones"}},
		{ID: 3, Keys: []string{""}},
		{ID: 4, Keys: []string{"john SMITH"}},
	}
	for _, scheme := range []KeyedScheme{ExactKey{}, TokenBlocking{}} {
		pairs := scheme.Candidates(records)
		got := make(map[Pair]bool)
		for _, p := range pairs {
			got[p] = true
		}
		keys := make([][]string, len(records))
		for i, r := range records {
			keys[i] = scheme.IndexKeys(r.Keys)
		}
		for i := 0; i < len(records); i++ {
			for j := i + 1; j < len(records); j++ {
				share := false
				for _, a := range keys[i] {
					for _, b := range keys[j] {
						if a == b {
							share = true
						}
					}
				}
				if share != got[normalizePair(records[i].ID, records[j].ID)] {
					t.Errorf("%T: records %d/%d share-key=%v but candidate=%v",
						scheme, i, j, share, !share)
				}
			}
		}
	}
}

func TestKeyTokens(t *testing.T) {
	got := KeyTokens("Smith, J. von Smith")
	want := []string{"smith", "von", "smith"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KeyTokens = %v, want %v", got, want)
	}
	if toks := KeyTokens("  "); len(toks) != 0 {
		t.Fatalf("blank key produced tokens %v", toks)
	}
}

func TestDocHashMatchesHashKey(t *testing.T) {
	// DocHash is the shared identity formula; the incremental diff builds
	// the same hash via HashKey with stringified parts.
	if DocHash("smith", 3, "http://x", "text", 2) != HashKey("smith", "3", "http://x", "text", "2") {
		t.Fatal("DocHash diverged from the HashKey formula the incremental diff uses")
	}
	if DocHash("smith", 3, "http://x", "text", 2) == DocHash("smith", 4, "http://x", "text", 2) {
		t.Fatal("DocHash ignored the document position")
	}
}
