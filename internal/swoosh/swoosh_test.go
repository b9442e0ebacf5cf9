package swoosh

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/eval"
	"repro/internal/simfn"
	"repro/internal/textsim"
)

func rec(id int, orgs ...string) *Record {
	return &Record{IDs: []int{id}, Organizations: orgs}
}

func orgMatch(min int) MatchFunc {
	return func(a, b *Record) bool {
		return textsim.SetOverlapCount(a.Organizations, b.Organizations) >= min
	}
}

func TestRSwooshSimpleMerge(t *testing.T) {
	records := []*Record{
		rec(0, "epfl"),
		rec(1, "epfl", "google"),
		rec(2, "mit"),
	}
	resolved, err := RSwoosh(records, orgMatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 2 {
		t.Fatalf("resolved = %d records, want 2", len(resolved))
	}
	labels := Labels(resolved, 3)
	if labels[0] != labels[1] {
		t.Error("records 0 and 1 should merge")
	}
	if labels[0] == labels[2] {
		t.Error("record 2 should stay separate")
	}
}

func TestRSwooshTransitiveViaMerge(t *testing.T) {
	// 0 and 2 share nothing, but both share with 1 — and crucially the
	// merged (0,1) record accumulates 1's orgs, enabling the match with 2.
	records := []*Record{
		rec(0, "epfl"),
		rec(1, "epfl", "google"),
		rec(2, "google"),
	}
	resolved, err := RSwoosh(records, orgMatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 1 {
		t.Fatalf("resolved = %d records, want 1 (merge enables new matches)", len(resolved))
	}
	if len(resolved[0].IDs) != 3 {
		t.Errorf("merged IDs = %v", resolved[0].IDs)
	}
}

func TestRSwooshDominanceOverPairwiseClosure(t *testing.T) {
	// Swoosh's merges can only add matches relative to the pairwise match
	// graph's transitive closure, never split it: every pairwise-connected
	// component ends in one record.
	records := []*Record{
		rec(0, "a", "b"),
		rec(1, "b", "c"),
		rec(2, "c", "d"),
		rec(3, "x"),
	}
	match := orgMatch(1)
	resolved, err := RSwoosh(records, match)
	if err != nil {
		t.Fatal(err)
	}
	labels := Labels(resolved, 4)

	g := ergraph.NewGraph(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if match(records[i], records[j]) {
				if err := g.AddEdge(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	closure := g.ConnectedComponents()
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if closure[i] == closure[j] && labels[i] != labels[j] {
				t.Errorf("closure joins (%d,%d) but swoosh split them", i, j)
			}
		}
	}
}

func TestRSwooshNoMatchesKeepsSingletons(t *testing.T) {
	records := []*Record{rec(0, "a"), rec(1, "b"), rec(2, "c")}
	resolved, err := RSwoosh(records, orgMatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 3 {
		t.Errorf("resolved = %d, want 3 singletons", len(resolved))
	}
}

func TestRSwooshNilMatch(t *testing.T) {
	if _, err := RSwoosh(nil, nil); err == nil {
		t.Error("nil match accepted")
	}
}

func TestRSwooshEmptyInput(t *testing.T) {
	resolved, err := RSwoosh(nil, orgMatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 0 {
		t.Errorf("resolved = %v", resolved)
	}
}

func TestRSwooshIdempotent(t *testing.T) {
	records := []*Record{
		rec(0, "a"), rec(1, "a", "b"), rec(2, "b"), rec(3, "z"),
	}
	match := orgMatch(1)
	once, err := RSwoosh(records, match)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := RSwoosh(once, match)
	if err != nil {
		t.Fatal(err)
	}
	if len(once) != len(twice) {
		t.Errorf("not a fixpoint: %d then %d records", len(once), len(twice))
	}
}

func TestMerge(t *testing.T) {
	a := &Record{
		IDs: []int{2, 0}, Persons: []string{"x"},
		Organizations: []string{"epfl"}, Names: []string{"john smith"},
		Concepts: textsim.SparseVector{"ML": 1},
		Terms:    textsim.SparseVector{"learn": 2},
	}
	b := &Record{
		IDs: []int{1}, Persons: []string{"x", "y"},
		Organizations: []string{"mit"},
		Concepts:      textsim.SparseVector{"DB": 1},
		Terms:         textsim.SparseVector{"learn": 1, "query": 3},
	}
	m := Merge(a, b)
	if len(m.IDs) != 3 || m.IDs[0] != 0 || m.IDs[2] != 2 {
		t.Errorf("IDs = %v", m.IDs)
	}
	if len(m.Persons) != 2 || len(m.Organizations) != 2 {
		t.Errorf("entity union wrong: %v / %v", m.Persons, m.Organizations)
	}
	if m.Terms["learn"] != 3 || m.Terms["query"] != 3 {
		t.Errorf("terms sum wrong: %v", m.Terms)
	}
	if math.Abs(m.Concepts.Norm()-1) > 1e-9 {
		t.Errorf("concepts not renormalized: %v", m.Concepts.Norm())
	}
	// Inputs untouched.
	if len(a.IDs) != 2 || a.Terms["learn"] != 2 {
		t.Error("Merge modified its input")
	}
}

func TestLabelsUncoveredDocs(t *testing.T) {
	resolved := []*Record{{IDs: []int{0, 2}}}
	labels := Labels(resolved, 4)
	if labels[0] != labels[2] {
		t.Error("covered docs should share a label")
	}
	if labels[1] == labels[0] || labels[3] == labels[0] || labels[1] == labels[3] {
		t.Errorf("uncovered docs should get fresh singletons: %v", labels)
	}
}

func TestFromBlockAndEndToEnd(t *testing.T) {
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: 40, NumPersonas: 4,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	block, err := simfn.PrepareBlockCtx(context.Background(), col, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := FromBlock(block)
	if len(records) != 40 {
		t.Fatalf("records = %d", len(records))
	}
	// A record's vectors are the map form of the document's packed ones,
	// weight for weight: R-Swoosh fed empty vectors still clusters, only
	// worse, so nothing downstream would notice.
	sameVector := func(label string, got textsim.SparseVector, p *textsim.PackedVector) {
		t.Helper()
		if len(got) == 0 || len(got) != p.Len() {
			t.Fatalf("%s: %d entries, packed vector has %d", label, len(got), p.Len())
		}
		for k, id := range p.IDs {
			term := block.Vocab.Term(id)
			if w, ok := got[term]; !ok || math.Float64bits(w) != math.Float64bits(p.Weights[k]) {
				t.Fatalf("%s[%q] = %v (present %v), packed weight %v", label, term, w, ok, p.Weights[k])
			}
		}
	}
	for i, r := range records {
		if len(r.IDs) != 1 || r.IDs[0] != i {
			t.Fatalf("record %d IDs = %v", i, r.IDs)
		}
		sameVector(fmt.Sprintf("record %d Terms", i), r.Terms, block.Docs[i].Packed)
		sameVector(fmt.Sprintf("record %d Concepts", i), r.Concepts, block.Docs[i].ConceptPacked)
	}
	resolved, err := RSwoosh(records, ThresholdMatch(0.55, 0.9, 2))
	if err != nil {
		t.Fatal(err)
	}
	labels := Labels(resolved, 40)
	score, err := eval.Evaluate(labels, col.GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	// The baseline should clearly beat chance on this easy block.
	if score.Fp < 0.4 {
		t.Errorf("R-Swoosh baseline Fp = %v, implausibly low", score.Fp)
	}
}

func TestThresholdMatch(t *testing.T) {
	a := &Record{Terms: textsim.SparseVector{"x": 1}}
	b := &Record{Terms: textsim.SparseVector{"x": 1}}
	if !ThresholdMatch(0.9, 0.9, 0)(a, b) {
		t.Error("identical term vectors should match")
	}
	c := &Record{Terms: textsim.SparseVector{"y": 1}}
	if ThresholdMatch(0.9, 0.9, 0)(a, c) {
		t.Error("orthogonal vectors should not match")
	}
	// Entity overlap path.
	d := &Record{Organizations: []string{"epfl", "mit"}}
	e := &Record{Organizations: []string{"epfl", "mit", "eth"}}
	if !ThresholdMatch(2, 2, 2)(d, e) {
		t.Error("two shared orgs should match with minShared=2")
	}
	if ThresholdMatch(2, 2, 0)(d, e) {
		t.Error("minShared=0 must disable the entity path")
	}
}
