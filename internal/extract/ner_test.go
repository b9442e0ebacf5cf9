package extract

import (
	"testing"
)

func testNER() *NER {
	return NewNER(
		[]string{"john", "mary", "andrew"},
		[]string{"smith", "cohen", "mccallum"},
		[]string{"stanford university", "google", "ibm research"},
		[]string{"new york", "boston"},
	)
}

func TestNERFullNames(t *testing.T) {
	n := testNER()
	text := "John Smith met Mary Cohen in Boston. John Smith works at Google."
	persons := filterType(n.Extract(text), PersonEntity)
	if len(persons) < 2 {
		t.Fatalf("persons = %v", persons)
	}
	// "john smith" appears twice → most frequent first.
	if persons[0] != "john smith" {
		t.Errorf("most frequent = %q, want john smith", persons[0])
	}
	found := false
	for _, p := range persons {
		if p == "mary cohen" {
			found = true
		}
	}
	if !found {
		t.Errorf("mary cohen missing from %v", persons)
	}
}

func TestNERBareSurname(t *testing.T) {
	n := testNER()
	persons := filterType(n.Extract("Professor Cohen presented the results."), PersonEntity)
	if len(persons) != 1 || persons[0] != "cohen" {
		t.Errorf("persons = %v, want [cohen]", persons)
	}
}

func TestNEROrganizationsAndLocations(t *testing.T) {
	n := testNER()
	text := "She moved from IBM Research to Stanford University in New York."
	orgs := filterType(n.Extract(text), OrganizationEntity)
	if len(orgs) != 2 {
		t.Fatalf("orgs = %v", orgs)
	}
	locs := filterType(n.Extract(text), LocationEntity)
	if len(locs) != 1 || locs[0] != "new york" {
		t.Errorf("locs = %v", locs)
	}
}

func TestNEREntityCountsAndOrdering(t *testing.T) {
	n := testNER()
	text := "Google Google Google. Boston. Smith."
	entities := n.Extract(text)
	if len(entities) == 0 {
		t.Fatal("no entities")
	}
	if entities[0].Name != "google" || entities[0].Count != 3 {
		t.Errorf("top entity = %+v, want google ×3", entities[0])
	}
}

func TestNEROrgTokensNotPersons(t *testing.T) {
	// "smith" inside an org mention must not surface as a person.
	n := NewNER(
		[]string{"john"},
		[]string{"smith"},
		[]string{"smith barney"},
		nil,
	)
	persons := filterType(n.Extract("He invested with Smith Barney last year."), PersonEntity)
	if len(persons) != 0 {
		t.Errorf("org token leaked as person: %v", persons)
	}
}

func TestNEREmptyText(t *testing.T) {
	n := testNER()
	if got := n.Extract(""); len(got) != 0 {
		t.Errorf("entities in empty text: %v", got)
	}
}

func TestDefaultNERUsesSharedWordlists(t *testing.T) {
	n := DefaultNER()
	persons := filterType(n.Extract("Andrew McCallum wrote the paper."), PersonEntity)
	if len(persons) == 0 || persons[0] != "andrew mccallum" {
		t.Errorf("persons = %v, want [andrew mccallum]", persons)
	}
	orgs := filterType(n.Extract("EPFL is in Lausanne."), OrganizationEntity)
	if len(orgs) != 1 || orgs[0] != "epfl" {
		t.Errorf("orgs = %v, want [epfl]", orgs)
	}
	locs := filterType(n.Extract("EPFL is in Lausanne."), LocationEntity)
	if len(locs) != 1 || locs[0] != "lausanne" {
		t.Errorf("locs = %v, want [lausanne]", locs)
	}
}

func TestEntityTypeString(t *testing.T) {
	if PersonEntity.String() != "person" ||
		OrganizationEntity.String() != "organization" ||
		LocationEntity.String() != "location" {
		t.Error("entity type labels wrong")
	}
	if EntityType(99).String() != "unknown" {
		t.Error("unknown entity type label wrong")
	}
}
