package extract

import (
	"cmp"
	"slices"
	"strings"

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

// entities recognizes all entities in the page in p.Tokens and leaves them
// in p.persons, p.organizations and p.places: aggregated by canonical name
// with occurrence counts, each list in decreasing count order (ties broken
// lexicographically, for determinism).
func (p *Pages) entities() {
	toks, tokens := p.Tokens, p.Lexicon.Tokens
	// Organizations and locations: straight gazetteer hits. Their tokens
	// are off limits to the person pass below.
	p.occupied = append(p.occupied[:0], make([]bool, len(toks))...)
	p.organizations = p.hits(&p.orgs, OrganizationEntity, p.organizations[:0])
	p.places = p.hits(&p.locs, LocationEntity, p.places[:0])

	// Persons: a first-name token followed by a surname token forms a full
	// name; a surname alone also counts (person pages frequently use bare
	// surnames), but only when the token is not part of an organization or
	// location mention.
	ps := p.persons[:0]
	for i := 0; i < len(toks); i++ {
		switch {
		case p.occupied[i]:
		case p.firstNames.hasToken(toks[i]) && i+1 < len(toks) && !p.occupied[i+1] && p.surnames.hasToken(toks[i+1]):
			key := [2]int32{toks[i], toks[i+1]}
			name, ok := p.fullNames[key]
			if !ok {
				name = tokens[key[0]] + " " + tokens[key[1]]
				p.fullNames[key] = name
			}
			ps = count(ps, PersonEntity, name)
			i++
		case p.surnames.hasToken(toks[i]):
			ps = count(ps, PersonEntity, tokens[toks[i]])
		}
	}

	// Page-local coreference: a bare surname mention refers to the full
	// name with that surname appearing on the same page ("Cohen" after
	// "James Cohen"). Attribute bare counts to the most frequent matching
	// full name, so MostFrequentName reflects the specific person.
	for b, bare := range ps {
		if strings.Contains(bare.Name, " ") {
			continue
		}
		best := -1
		for f, full := range ps {
			if n := len(full.Name) - len(bare.Name); n > 0 && full.Name[n-1] == ' ' && full.Name[n:] == bare.Name &&
				(best < 0 || full.Count > ps[best].Count || (full.Count == ps[best].Count && full.Name < ps[best].Name)) {
				best = f
			}
		}
		if best >= 0 {
			ps[best].Count += bare.Count
			ps[b].Count = 0
		}
	}
	p.persons = sortEntities(slices.DeleteFunc(ps, func(e Entity) bool { return e.Count == 0 }))
}

// hits appends to out the page's matches of one dictionary, aggregated by
// canonical name and sorted, and marks their tokens occupied.
func (p *Pages) hits(v *gazetteerView, t EntityType, out []Entity) []Entity {
	p.matches = v.appendMatches(p.matches[:0], p.Tokens, p.Lexicon.Tokens)
	for _, m := range p.matches {
		for i := m.start; i < m.end; i++ {
			p.occupied[i] = true
		}
		out = count(out, t, m.canonical)
	}
	return sortEntities(out)
}

// count counts one occurrence of the named entity in es.
func count(es []Entity, t EntityType, name string) []Entity {
	for i := range es {
		if es[i].Name == name {
			es[i].Count++
			return es
		}
	}
	return append(es, Entity{Type: t, Name: name, Count: 1})
}

// sortEntities orders entities by decreasing count, ties by type, then
// lexicographically, in place.
func sortEntities(es []Entity) []Entity {
	slices.SortFunc(es, func(a, b Entity) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Type, b.Type), strings.Compare(a.Name, b.Name))
	})
	return es
}
