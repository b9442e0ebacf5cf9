package extract

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/textsim"
)

// The string forms of the extractors, as they ran before the block-local
// lexicon: every token occurrence is hashed as a string by every
// dictionary, concept activations accumulate in a map, and every page
// re-derives everything. Nothing but the tests reaches them; they are the
// oracle the ID kernel (Pages and its gazetteerViews) is compared against, and what the dictionary-level tests exercise.

// Match is one gazetteer hit in a token sequence.
type Match struct {
	// Canonical is the matched dictionary entry joined by single spaces,
	// lower-cased.
	Canonical string
	// Start and End delimit the matched token span [Start, End).
	Start, End int
}

// entries returns the entries that start with token tok, longest first.
func (g *Gazetteer) entries(tok string) []entry { return g.lists[g.first[tok]] }

// FindAll scans a lower-cased token sequence and returns all
// non-overlapping matches, greedily preferring longer matches at each
// position.
func (g *Gazetteer) FindAll(lower []string) []Match {
	var matches []Match
	i := 0
	for i < len(lower) {
		next := i + 1
		for _, cand := range g.entries(lower[i]) {
			if end := i + len(cand.tokens); end <= len(lower) && reflect.DeepEqual(lower[i:end], cand.tokens) {
				matches = append(matches, Match{Canonical: cand.canonical, Start: i, End: end})
				next = end
				break
			}
		}
		i = next
	}
	return matches
}

// hasToken reports whether the single lower-cased token is an entry of its
// own (not merely the first word of a longer one).
func (g *Gazetteer) hasToken(tok string) bool {
	cands := g.entries(tok)
	return len(cands) > 0 && len(cands[len(cands)-1].tokens) == 1
}

// ExtractTokens is the string form of Pages.entities, all types in one
// list: decreasing count order, ties broken by type, then
// lexicographically.
func (n *NER) ExtractTokens(lower []string) []Entity {
	persons, orgs, locs := make(map[string]int), make(map[string]int), make(map[string]int)
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

// ExtractTokens is the string form of Pages.conceptVector: the concept
// vector of a page given as its lower-cased tokens and standard-chain
// terms, as a map.
func (ce *ConceptExtractor) ExtractTokens(lower, terms []string) textsim.SparseVector {
	v := textsim.NewSparseVector()
	for _, term := range terms {
		for _, c := range ce.triggers[ce.triggerOf[term]] {
			v.Add(ce.names[c], 1)
		}
	}
	for _, m := range ce.labels.FindAll(lower) {
		if c, ok := ce.labelConcept[m.Canonical]; ok {
			v.Add(ce.names[c], 3)
		}
	}
	if n := v.Norm(); n > 0 {
		v.Scale(1 / n)
	}
	return v
}

// TopConcepts is the string form of Pages.topConcepts: the k
// highest-weighted concept labels of a concept vector, in decreasing
// weight order (ties broken lexicographically).
func TopConcepts(v textsim.SparseVector, k int) []string {
	type cw struct {
		c string
		w float64
	}
	all := make([]cw, 0, len(v))
	for c, w := range v {
		all = append(all, cw{c, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].c < all[j].c
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, 0, k)
	for _, x := range all[:k] {
		out = append(out, x.c)
	}
	return out
}

// ExtractTokens is the string form of Pages.Extract.
func (fe *FeatureExtractor) ExtractTokens(lower, terms []string, url, queryName string) DocumentFeatures {
	var f DocumentFeatures
	concepts := fe.concepts.ExtractTokens(lower, terms)
	for name, w := range concepts {
		f.ConceptVector = append(f.ConceptVector, WeightedConcept{name, w})
	}
	slices.SortFunc(f.ConceptVector, func(a, b WeightedConcept) int { return strings.Compare(a.Name, b.Name) })
	f.Concepts = TopConcepts(concepts, fe.topK)
	entities := fe.ner.ExtractTokens(lower)
	f.Organizations = filterType(entities, OrganizationEntity)
	f.Locations = filterType(entities, LocationEntity)
	f.URL = ParseURL(url)

	persons := filterType(entities, PersonEntity) // most frequent first
	if len(persons) > 0 {
		f.MostFrequentName = persons[0]
	}
	query := textsim.PrepareName(queryName)
	bestScore := -1.0
	for _, p := range persons {
		s := textsim.PreparedNameSimilarity(textsim.PrepareName(p), query)
		if s > bestScore {
			f.ClosestName, bestScore = p, s
		}
		if s < 0.95 && !containsToken(p, strings.ToLower(queryName)) {
			f.OtherPersons = append(f.OtherPersons, p)
		}
	}
	return f
}

// The one-page forms the dictionary-level tests call: the kernel over a
// lexicon that sees one page.

// Extract analyzes text and recognizes its entities, all types in one
// list ordered as ExtractTokens orders them.
func (n *NER) Extract(text string) []Entity {
	p := NewFeatureExtractor(n, NewConceptExtractor(nil, nil)).NewPages("")
	p.analyze(text)
	p.entities()
	return sortEntities(slices.Concat(p.persons, p.organizations, p.places))
}

// Extract analyzes text and returns its concept vector.
func (ce *ConceptExtractor) Extract(text string) textsim.SparseVector {
	p := NewFeatureExtractor(NewNER(nil, nil, nil, nil), ce).NewPages("")
	p.analyze(text)
	p.conceptVector()
	v := textsim.NewSparseVector()
	for _, c := range p.concepts {
		v[c.Name] = c.Weight
	}
	return v
}

// Size returns the number of dictionary entries.
func (g *Gazetteer) Size() int {
	n := 0
	for _, cands := range g.lists {
		n += len(cands)
	}
	return n
}

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

// awkwardPages are the hand-built inputs the kernel and the string forms
// are compared on besides generated pages: see
// TestPrepareKernelMatchesReference in internal/simfn, which runs the same
// texts through the whole block preparation.
var awkwardPages = []string{
	"",
	"the and of with http www",
	"café ÅNGSTRÖM 42 ٣٤ İstanbul x9 C3PO",
	"don't state-of-the-art O’Brien rock'n'roll -lead trail-",
	"He joined Carnegie Mellon", // multi-word organization cut off by the end of the page
	"from New York to Mexico",   // "mexico city" cut off
	// With smallExtractor: tokens that start an organization and are surnames.
	"Morgan Stanley hired David Morgan. Smith Barney and John Smith Barney, Smith",
	"Machine learning and machine learning with a classifier; support vector",
	"James Cohen met David Cohen and Mary Smith. Cohen said. David Cohen agreed. Smith left.",
	"Cohen Cohen Cohen james cohen JAMES COHEN",
	"google Google GOOGLE mit MIT lausanne Lausanne",
}

// smallExtractor has dictionaries that overlap: "smith" and "morgan" are
// surnames and start an organization, "mark" is a first name and a surname.
func smallExtractor() *FeatureExtractor {
	return NewFeatureExtractor(NewNER(
		[]string{"john", "david", "mark", "james"},
		[]string{"smith", "morgan", "cohen", "mark", "barney"},
		[]string{"smith barney", "morgan stanley", "morgan"},
		[]string{"new york", "york"}), nil)
}

// TestExtractKernelMatchesReference pins the ID kernel to the string forms
// bit for bit: every page alone (one-page lexicon) and every page as part
// of a block whose lexicon has already seen the others, on generated
// collections of both benchmark shapes and on the awkward pages.
func TestExtractKernelMatchesReference(t *testing.T) {
	check := func(label string, fe *FeatureExtractor, name string, texts, urls []string) {
		t.Helper()
		pages := fe.NewPages(name)
		for i, text := range texts {
			lower, terms := analysis.Standard.Analyze(text)
			want := fe.ExtractTokens(lower, terms, urls[i], name)
			if got := pages.Extract(text, urls[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s page %d in its block:\n got %+v\nwant %+v", label, i, got, want)
			}
			if got := fe.Extract(text, urls[i], name); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s page %d alone:\n got %+v\nwant %+v", label, i, got, want)
			}
			ents := fe.ner.ExtractTokens(lower)
			if got := fe.ner.Extract(text); len(got)+len(ents) > 0 && !reflect.DeepEqual(got, ents) {
				t.Fatalf("%s page %d entities:\n got %+v\nwant %+v", label, i, got, ents)
			}
		}
	}
	for _, name := range []string{"cohen", "Cohen", "david cohen", "smith", ""} {
		check("awkward/"+name, DefaultFeatureExtractor(), name, awkwardPages, make([]string, len(awkwardPages)))
		check("awkward/small/"+name, smallExtractor(), name, awkwardPages, make([]string, len(awkwardPages)))
	}
	shapes := map[string]corpus.CollectionConfig{
		"www05": {NumPersonas: 13, Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25},
		"6k":    {NumPersonas: 4, Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2},
	}
	for shape, cfg := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			cfg.Name, cfg.NumDocs, cfg.Seed = "cohen", 60, seed
			col, err := corpus.GenerateCollection(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var texts, urls []string
			for _, d := range col.Docs {
				texts, urls = append(texts, d.Text), append(urls, d.URL)
			}
			// Shuffled duplicates: pages the lexicon has seen in full.
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 10; k++ {
				j := rng.Intn(len(col.Docs))
				texts, urls = append(texts, texts[j]), append(urls, urls[j])
			}
			check(fmt.Sprintf("%s/seed=%d", shape, seed), DefaultFeatureExtractor(), col.Name, texts, urls)
		}
	}
}

// TestQueryNameCaseInsensitive: a collection posted as "Cohen" must not
// keep the query person's own mentions among the other persons (F6).
func TestQueryNameCaseInsensitive(t *testing.T) {
	fe := DefaultFeatureExtractor()
	text := "James Cohen met David Cohen and Mary Smith at the workshop. Cohen said the results were new."
	lower, upper := fe.Extract(text, "", "cohen"), fe.Extract(text, "", "Cohen")
	if !reflect.DeepEqual(lower, upper) {
		t.Errorf("features differ by the case of the query name:\ncohen %+v\nCohen %+v", lower, upper)
	}
	if want := []string{"mary smith"}; !reflect.DeepEqual(upper.OtherPersons, want) {
		t.Errorf("OtherPersons for query Cohen = %v, want %v", upper.OtherPersons, want)
	}
}
