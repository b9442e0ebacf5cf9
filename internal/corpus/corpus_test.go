package corpus

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenerateCollectionBasics(t *testing.T) {
	col, err := GenerateCollection(CollectionConfig{
		Name: "cohen", NumDocs: 50, NumPersonas: 5,
		Noise: 0.5, MissingInfo: 0.2, Spurious: 0.3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(col.Docs) != 50 {
		t.Fatalf("docs = %d", len(col.Docs))
	}
	if col.NumPersonas != 5 {
		t.Fatalf("personas = %d", col.NumPersonas)
	}
	// Every doc mentions the query name somewhere.
	for _, d := range col.Docs {
		if !strings.Contains(strings.ToLower(d.Text), "cohen") {
			t.Errorf("doc %d does not mention the query name: %q", d.ID, d.Text[:min(80, len(d.Text))])
		}
		if d.URL == "" {
			t.Errorf("doc %d has empty URL", d.ID)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGenerateCollectionDeterministic(t *testing.T) {
	cfg := CollectionConfig{
		Name: "smith", NumDocs: 30, NumPersonas: 4,
		Noise: 0.5, MissingInfo: 0.2, Spurious: 0.3, Seed: 7,
	}
	a, err := GenerateCollection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCollection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Docs {
		if a.Docs[i].Text != b.Docs[i].Text || a.Docs[i].URL != b.Docs[i].URL ||
			a.Docs[i].PersonaID != b.Docs[i].PersonaID {
			t.Fatalf("doc %d differs between identical-seed generations", i)
		}
	}
	// A different seed must give different content.
	cfg.Seed = 8
	c, _ := GenerateCollection(cfg)
	same := true
	for i := range a.Docs {
		if a.Docs[i].Text != c.Docs[i].Text {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical collections")
	}
}

func TestGenerateCollectionErrors(t *testing.T) {
	if _, err := GenerateCollection(CollectionConfig{Name: "x", NumDocs: 0, NumPersonas: 1}); err == nil {
		t.Error("want error for zero docs")
	}
	if _, err := GenerateCollection(CollectionConfig{Name: "x", NumDocs: 5, NumPersonas: 0}); err == nil {
		t.Error("want error for zero personas")
	}
	if _, err := GenerateCollection(CollectionConfig{Name: "x", NumDocs: 5, NumPersonas: 6}); err == nil {
		t.Error("want error for more personas than docs")
	}
}

func TestClusterSizesInvariants(t *testing.T) {
	col, err := GenerateCollection(CollectionConfig{
		Name: "ng", NumDocs: 100, NumPersonas: 61,
		Noise: 0.5, MissingInfo: 0.2, Spurious: 0.3, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, d := range col.Docs {
		counts[d.PersonaID]++
	}
	if len(counts) != 61 {
		t.Fatalf("observed %d personas, want 61", len(counts))
	}
	total := 0
	for pid, c := range counts {
		if c < 1 {
			t.Errorf("persona %d has no docs", pid)
		}
		total += c
	}
	if total != 100 {
		t.Errorf("total docs = %d", total)
	}
}

func TestClusterSizesSkewed(t *testing.T) {
	col, err := GenerateCollection(CollectionConfig{
		Name: "voss", NumDocs: 100, NumPersonas: 5,
		Noise: 0.5, MissingInfo: 0.2, Spurious: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, d := range col.Docs {
		counts[d.PersonaID]++
	}
	// Zipf over persona rank: persona 0 must dominate persona 4.
	if counts[0] <= counts[4] {
		t.Errorf("expected skew: head=%d tail=%d", counts[0], counts[4])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	col, _ := GenerateCollection(CollectionConfig{
		Name: "mark", NumDocs: 10, NumPersonas: 2,
		Noise: 0.5, Seed: 3,
	})
	col.Docs[3].PersonaID = 99
	if err := col.Validate(); err == nil {
		t.Error("out-of-range persona not caught")
	}
	col.Docs[3].PersonaID = 0
	col.Docs[5].ID = 77
	if err := col.Validate(); err == nil {
		t.Error("non-dense ID not caught")
	}
}

func TestWWW05Profile(t *testing.T) {
	p := WWW05Profile()
	if len(p.Names) != 12 || len(p.ClusterCounts) != 12 {
		t.Fatalf("WWW05 profile: %d names, %d counts", len(p.Names), len(p.ClusterCounts))
	}
	if p.ClusterCounts[0] != 2 || p.ClusterCounts[11] != 61 {
		t.Errorf("cluster counts should span 2..61: %v", p.ClusterCounts)
	}
	d, err := p.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.TotalDocs() != 1200 {
		t.Errorf("TotalDocs = %d, want 1200", d.TotalDocs())
	}
}

func TestWePSProfile(t *testing.T) {
	p := WePSProfile()
	if len(p.Names) != 30 {
		t.Fatalf("WePS profile: %d names, want 30", len(p.Names))
	}
	d, err := p.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Subset to the 10 reported ACL names.
	acl := d.Subset(WePSACLNames)
	if len(acl.Collections) != 10 {
		t.Errorf("ACL subset = %d collections, want 10", len(acl.Collections))
	}
	for i, c := range acl.Collections {
		if c.Name != WePSACLNames[i] {
			t.Errorf("subset order broken at %d: %q", i, c.Name)
		}
		if len(c.Docs) != 150 {
			t.Errorf("collection %q has %d docs, want 150", c.Name, len(c.Docs))
		}
	}
}

func TestSubsetUnknownNames(t *testing.T) {
	d := &Dataset{Label: "x", Collections: []*Collection{{Name: "a", NumPersonas: 1, Docs: []Document{{ID: 0}}}}}
	s := d.Subset([]string{"zzz", "a"})
	if len(s.Collections) != 1 || s.Collections[0].Name != "a" {
		t.Errorf("subset = %v", s.Collections)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := DatasetProfile{
		Label: "tiny", Names: []string{"lee", "park"}, DocsPerName: 12,
		ClusterCounts: []int{2, 3}, Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2,
	}
	d, err := p.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != d.Label || len(back.Collections) != len(d.Collections) {
		t.Fatal("round trip lost structure")
	}
	for i, c := range back.Collections {
		orig := d.Collections[i]
		if c.Name != orig.Name || len(c.Docs) != len(orig.Docs) {
			t.Fatalf("collection %d differs", i)
		}
		for j := range c.Docs {
			if c.Docs[j] != orig.Docs[j] {
				t.Fatalf("doc %d/%d differs", i, j)
			}
		}
	}
}

func TestReadJSONRejectsCorrupt(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Valid JSON but inconsistent labels.
	bad := `{"label":"x","collections":[{"name":"a","num_personas":2,"docs":[{"id":0,"url":"u","text":"t","persona_id":5}]}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent dataset accepted")
	}
}

func TestProfileGenerateMismatchedCounts(t *testing.T) {
	p := DatasetProfile{Label: "bad", Names: []string{"a"}, ClusterCounts: []int{1, 2}, DocsPerName: 5}
	if _, err := p.Generate(1); err == nil {
		t.Error("mismatched profile accepted")
	}
}

func TestGroundTruth(t *testing.T) {
	col, _ := GenerateCollection(CollectionConfig{
		Name: "hall", NumDocs: 20, NumPersonas: 3, Seed: 11,
	})
	gt := col.GroundTruth()
	if len(gt) != 20 {
		t.Fatalf("gt len = %d", len(gt))
	}
	for i, d := range col.Docs {
		if gt[i] != d.PersonaID {
			t.Fatal("ground truth mismatch")
		}
	}
}

func TestPersonaFullName(t *testing.T) {
	p := Persona{FirstName: "ada"}
	if got := p.FullName("byron"); got != "ada byron" {
		t.Errorf("FullName = %q", got)
	}
}

func TestTitleHelper(t *testing.T) {
	cases := []struct{ in, want string }{
		{"john smith", "John Smith"},
		{"  spaced  words ", "Spaced Words"},
		{"Already Upper", "Already Upper"},
		{"", ""},
	}
	for _, tc := range cases {
		if got := title(tc.in); got != tc.want {
			t.Errorf("title(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestReadJSONRejectsNullCollection(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{"label":"x","collections":[null]}`))
	if err == nil || !strings.Contains(err.Error(), "nil collection") {
		t.Fatalf("ReadJSON of a null collection = %v, want a nil-collection error", err)
	}
}
