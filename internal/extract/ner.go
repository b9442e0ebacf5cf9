package extract

import (
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/wordlists"
)

// EntityType classifies named entities recognized by the extractor.
type EntityType int

const (
	// PersonEntity is a person name (first + last, or bare surname).
	PersonEntity EntityType = iota
	// OrganizationEntity is a company, university or institution.
	OrganizationEntity
	// LocationEntity is a city or region.
	LocationEntity
)

// String returns the entity type label.
func (t EntityType) String() string {
	switch t {
	case PersonEntity:
		return "person"
	case OrganizationEntity:
		return "organization"
	case LocationEntity:
		return "location"
	default:
		return "unknown"
	}
}

// Entity is one recognized named entity occurrence.
type Entity struct {
	Type EntityType
	// Name is the canonical lower-cased surface form.
	Name string
	// Count is the number of occurrences in the document.
	Count int
}

// NER is a dictionary-based named entity recognizer for persons,
// organizations and locations, mirroring the role of the GATE/OpenCalais/
// AlchemyAPI services in the paper's pipeline.
type NER struct {
	firstNames *Gazetteer
	surnames   *Gazetteer
	orgs       *Gazetteer
	locations  *Gazetteer
}

// NewNER builds a recognizer over explicit dictionaries.
func NewNER(firstNames, surnames, orgs, locations []string) *NER {
	return &NER{
		firstNames: NewGazetteer(firstNames),
		surnames:   NewGazetteer(surnames),
		orgs:       NewGazetteer(orgs),
		locations:  NewGazetteer(locations),
	}
}

// DefaultNER returns a recognizer over the built-in wordlists, the
// dictionaries shared with the synthetic corpus generator.
func DefaultNER() *NER {
	return NewNER(wordlists.FirstNames, wordlists.Surnames,
		wordlists.Organizations, wordlists.Locations)
}

// Extract analyzes text and recognizes its entities; see ExtractTokens.
func (n *NER) Extract(text string) []Entity {
	lower, _ := analysis.Standard.Analyze(text)
	return n.ExtractTokens(lower)
}

// ExtractTokens recognizes all entities in a page given as its lower-cased
// token sequence and returns them aggregated by canonical name with
// occurrence counts, in decreasing count order (ties broken by type, then
// lexicographically, for determinism).
func (n *NER) ExtractTokens(lower []string) []Entity {
	persons, orgs, locs := make(map[string]int), make(map[string]int), make(map[string]int)

	// Organizations and locations: straight gazetteer hits. Their tokens
	// are off limits to the person pass below.
	occupied := make([]bool, len(lower))
	count := func(g *Gazetteer, counts map[string]int) {
		for _, m := range g.FindAll(lower) {
			counts[m.Canonical]++
			for i := m.Start; i < m.End; i++ {
				occupied[i] = true
			}
		}
	}
	count(n.orgs, orgs)
	count(n.locations, locs)

	// Persons: a first-name token followed by a surname token forms a full
	// name; a surname alone also counts (person pages frequently use bare
	// surnames), but only when the token is not part of an organization or
	// location mention.
	i := 0
	for i < len(lower) {
		if occupied[i] {
			i++
			continue
		}
		if n.firstNames.hasToken(lower[i]) && i+1 < len(lower) && !occupied[i+1] && n.surnames.hasToken(lower[i+1]) {
			persons[lower[i]+" "+lower[i+1]]++
			i += 2
			continue
		}
		if n.surnames.hasToken(lower[i]) {
			persons[lower[i]]++
		}
		i++
	}

	// Page-local coreference: a bare surname mention refers to the full
	// name with that surname appearing on the same page ("Cohen" after
	// "James Cohen"). Attribute bare counts to the most frequent matching
	// full name, so MostFrequentName reflects the specific person.
	for name, c := range persons {
		if strings.Contains(name, " ") {
			continue
		}
		best, bestCount := "", 0
		for other, oc := range persons {
			if other != name && strings.HasSuffix(other, " "+name) &&
				(oc > bestCount || (oc == bestCount && other < best)) {
				best, bestCount = other, oc
			}
		}
		if best != "" {
			persons[best] += c
			delete(persons, name)
		}
	}

	out := make([]Entity, 0, len(persons)+len(orgs)+len(locs))
	for etype, byName := range []map[string]int{PersonEntity: persons, OrganizationEntity: orgs, LocationEntity: locs} {
		for name, c := range byName {
			out = append(out, Entity{Type: EntityType(etype), Name: name, Count: c})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		if out[a].Type != out[b].Type {
			return out[a].Type < out[b].Type
		}
		return out[a].Name < out[b].Name
	})
	return out
}

func filterType(entities []Entity, t EntityType) []string {
	var out []string
	for _, e := range entities {
		if e.Type == t {
			out = append(out, e.Name)
		}
	}
	return out
}
