package extract

import (
	"sync"

	"repro/internal/analysis"
	"repro/internal/textsim"
)

// DocumentFeatures is the full feature bundle the similarity functions
// (Table I) consume for one web page. It is produced once per document by a
// FeatureExtractor as the preprocessing step of the pipeline.
type DocumentFeatures struct {
	// ConceptVector is the L2-normalized weighted concept vector (F1).
	ConceptVector textsim.SparseVector
	// Concepts is the unweighted top-concept set (F4).
	Concepts []string
	// Organizations are the canonical organization mentions (F5).
	Organizations []string
	// OtherPersons are person mentions excluding the query name itself (F6).
	OtherPersons []string
	// MostFrequentName is the most frequent person name on the page (F3).
	MostFrequentName string
	// ClosestName is the person mention most similar to the search keyword
	// (F7); empty when the page mentions no person.
	ClosestName string
	// URL carries the parsed URL features (F2).
	URL URLFeatures
	// Locations are canonical location mentions (extension feature).
	Locations []string
}

// FeatureExtractor bundles the NER and concept extractors and applies them
// to documents. It is read-only after NewFeatureExtractor, so one extractor
// serves any number of goroutines.
//
// erlint:immutable — DefaultFeatureExtractor is shared by every concurrent
// block preparation.
type FeatureExtractor struct {
	ner      *NER
	concepts *ConceptExtractor
	// topK bounds the unweighted concept set size for F4.
	topK int
}

// NewFeatureExtractor returns an extractor using the given components; nil
// components select the defaults built on the shared wordlists.
func NewFeatureExtractor(ner *NER, concepts *ConceptExtractor) *FeatureExtractor {
	if ner == nil {
		ner = DefaultNER()
	}
	if concepts == nil {
		concepts = DefaultConceptExtractor()
	}
	return &FeatureExtractor{ner: ner, concepts: concepts, topK: 10}
}

var defaultFeatureExtractor = sync.OnceValue(func() *FeatureExtractor {
	return NewFeatureExtractor(nil, nil)
})

// DefaultFeatureExtractor returns the process-wide extractor over the
// built-in wordlists, built on first use: every caller without components of
// its own shares the one set of gazetteers and concept triggers.
func DefaultFeatureExtractor() *FeatureExtractor { return defaultFeatureExtractor() }

// Extract analyzes a page's text and computes its full feature bundle; see
// ExtractTokens.
func (fe *FeatureExtractor) Extract(text, url, queryName string) DocumentFeatures {
	lower, terms := analysis.Standard.Analyze(text)
	return fe.ExtractTokens(lower, terms, url, queryName)
}

// ExtractTokens computes the full feature bundle for a page from one
// analysis pass over its text (analysis.Standard.Analyze), its URL and the
// ambiguous query name the collection was retrieved for. Callers that also
// index the page hand the same terms to index.AddTerms.
func (fe *FeatureExtractor) ExtractTokens(lower, terms []string, url, queryName string) DocumentFeatures {
	var f DocumentFeatures
	f.ConceptVector = fe.concepts.ExtractTokens(lower, terms)
	f.Concepts = TopConcepts(f.ConceptVector, fe.topK)
	entities := fe.ner.ExtractTokens(lower)
	f.Organizations = filterType(entities, OrganizationEntity)
	f.Locations = filterType(entities, LocationEntity)
	f.URL = ParseURL(url)

	persons := filterType(entities, PersonEntity) // most frequent first
	if len(persons) > 0 {
		f.MostFrequentName = persons[0]
	}
	// ClosestName (F7) is the mention most similar to the query keyword;
	// OtherPersons (F6) drops the mentions that are the query name itself
	// (near-exact or one-token-containment matches).
	query := textsim.PrepareName(queryName)
	bestScore := -1.0
	for _, p := range persons {
		s := textsim.PreparedNameSimilarity(textsim.PrepareName(p), query)
		if s > bestScore {
			f.ClosestName, bestScore = p, s
		}
		if s < 0.95 && !containsToken(p, queryName) {
			f.OtherPersons = append(f.OtherPersons, p)
		}
	}
	return f
}

// containsToken reports whether any token of a equals any token of b, the
// heuristic that drops "john smith" and bare "smith" mentions for query
// "smith".
func containsToken(a, b string) bool {
	ta := tokenSet(a)
	for _, t := range tokenSet(b) {
		for _, s := range ta {
			if s == t {
				return true
			}
		}
	}
	return false
}

func tokenSet(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}
