package extract

import (
	"math"
	"testing"

	"repro/internal/textsim"
)

func testConceptExtractor() *ConceptExtractor {
	concepts := map[string][]string{
		"ml": {"Machine learning", "Neural network"},
		"db": {"Database", "Entity resolution"},
	}
	words := map[string][]string{
		"ml": {"learning", "classifier", "training", "model"},
		"db": {"database", "query", "record", "linkage"},
	}
	return NewConceptExtractor(concepts, words)
}

func TestConceptExtraction(t *testing.T) {
	ce := testConceptExtractor()
	v := ce.Extract("We study learning with a classifier model trained on data.")
	if len(v) == 0 {
		t.Fatal("no concepts extracted")
	}
	if _, ok := v["Machine learning"]; !ok {
		t.Errorf("Machine learning missing: %v", v)
	}
	// L2 normalized.
	if n := v.Norm(); math.Abs(n-1) > 1e-9 {
		t.Errorf("Norm = %v, want 1", n)
	}
}

func TestConceptLabelMention(t *testing.T) {
	ce := testConceptExtractor()
	// The literal label carries weight 3, so a label mention alone
	// activates the concept strongly.
	v := ce.Extract("A tutorial on entity resolution.")
	if _, ok := v["Entity resolution"]; !ok {
		t.Fatalf("label mention not detected: %v", v)
	}
	// A page about databases should be more similar to another database
	// page than to an ML page.
	dbA := ce.Extract("database query record linkage database")
	dbB := ce.Extract("The query hit every record in the database.")
	ml := ce.Extract("training a classifier model with learning")
	simDB := textsim.Cosine(dbA, dbB)
	simCross := textsim.Cosine(dbA, ml)
	if simDB <= simCross {
		t.Errorf("same-topic similarity %v should exceed cross-topic %v", simDB, simCross)
	}
}

func TestConceptEmptyText(t *testing.T) {
	ce := testConceptExtractor()
	if v := ce.Extract(""); len(v) != 0 {
		t.Errorf("concepts from empty text: %v", v)
	}
	if v := ce.Extract("完全 无关 词汇"); len(v) != 0 {
		t.Errorf("concepts from out-of-vocabulary text: %v", v)
	}
}

func TestTopConcepts(t *testing.T) {
	ce := testConceptExtractor()
	text := "database query record linkage and some learning"
	top := TopConcepts(ce.Extract(text), 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	// db concepts triggered by 4 words + ml by 1 → db concepts first.
	if top[0] != "Database" && top[0] != "Entity resolution" {
		t.Errorf("top concept = %q, want a db concept", top[0])
	}
	// k larger than the activation set truncates gracefully.
	all := TopConcepts(ce.Extract(text), 100)
	if len(all) < 2 {
		t.Errorf("all concepts = %v", all)
	}
	if got := TopConcepts(ce.Extract(""), 5); len(got) != 0 {
		t.Errorf("TopConcepts of empty text = %v", got)
	}
}

func TestDefaultConceptExtractorCoverage(t *testing.T) {
	ce := DefaultConceptExtractor()
	v := ce.Extract("He published work on clustering, supervised learning and bayesian inference.")
	if len(v) == 0 {
		t.Fatal("default extractor found nothing in ML text")
	}
	found := false
	for c := range v {
		if c == "Machine learning" {
			found = true
		}
	}
	if !found {
		t.Errorf("Machine learning not activated: %v", v)
	}
}

func TestConceptDeterminism(t *testing.T) {
	ce := DefaultConceptExtractor()
	text := "clustering learning database query recipe kitchen"
	a := TopConcepts(ce.Extract(text), 5)
	b := TopConcepts(ce.Extract(text), 5)
	if len(a) != len(b) {
		t.Fatal("non-deterministic sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic ordering: %v vs %v", a, b)
		}
	}
}
