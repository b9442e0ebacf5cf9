package extract

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/textsim"
)

// DocumentFeatures is the full feature bundle the similarity functions
// (Table I) consume for one web page. It is produced once per document by a
// FeatureExtractor as the preprocessing step of the pipeline.
type DocumentFeatures struct {
	// ConceptVector is the L2-normalized weighted concept vector (F1), in
	// lexicographic label order; nil when the page activates no concept.
	ConceptVector []WeightedConcept
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

// Extract computes the full feature bundle of one page: the one-page form of
// NewPages(queryName).Extract(text, url).
func (fe *FeatureExtractor) Extract(text, url, queryName string) DocumentFeatures {
	return fe.NewPages(queryName).Extract(text, url)
}

// Pages extracts the feature bundles of the pages of one block — every page
// retrieved for one ambiguous query name — through a lexicon that outlives
// the block: a token occurrence costs one lookup, the dictionaries and
// concept triggers are consulted once per distinct token, and the F6/F7
// verdict on a person mention is reached once per distinct mention and
// query. A Pages value belongs to one caller at a time and is not safe for
// concurrent use (the FeatureExtractor behind it is). Reset reuses it for
// the next block.
//
// What a token is — its lower-cased form, its index term, its dictionary
// entries and concept triggers, the full names it begins — does not depend
// on the block, so the lexicon and these per-token tables are kept from
// block to block and grow with the distinct tokens the blocks bring. Only
// what the query name decides starts over with each block. Once the
// lexicon holds more than LexiconCap tokens, Reset starts it over too.
type Pages struct {
	// Lexicon is the token and term table of the blocks read so far; its
	// IDs stay valid across Reset until it passes LexiconCap tokens.
	Lexicon *analysis.Lexicon
	// Tokens are the token IDs of the page last extracted, overwritten by
	// the next Extract.
	Tokens []int32

	fe *FeatureExtractor
	// What the extractor's dictionaries say, per token and term ID.
	firstNames, surnames, orgs, locs, labels gazetteerView
	triggers                                 []int32 // per term ID, an index into the extractor's triggers
	// Memoised per lexicon.
	fullNames map[[2]int32]string // (first name, surname) token IDs → "first surname"
	// Memoised per block.
	verdicts   map[string]verdict
	query      textsim.Name
	queryLower string
	// Scratch, overwritten by every page.
	activation                     []float64 // by concept ID, zero between pages
	active, top                    []int32
	concepts                       []WeightedConcept
	occupied                       []bool
	matches                        []match
	persons, organizations, places []Entity
}

// LexiconCap is the number of distinct tokens past which Reset starts the
// lexicon and its per-token tables over, so that a run over many blocks
// holds the tables of about this many tokens at a time, plus what its last
// block added: some 200 bytes a token with simfn's per-term arrays, about
// 3 MB per block worker at the cap. The blocks of a run share most of
// their tokens: one worker's 75 blocks of the 6,000-page bench corpus hold
// 1,024 distinct tokens, and the paper's 1,200 WWW'05 pages 922, far below
// the cap. It is a constant, not a setting.
const LexiconCap = 1 << 14

// verdict is what F6 and F7 ask about one person mention, given the query.
type verdict struct {
	similarity float64 // to the query name
	isQuery    bool    // the mention is the query name itself
}

// NewPages starts a block: queryName is the ambiguous name its pages were
// retrieved for, compared case-insensitively.
func (fe *FeatureExtractor) NewPages(queryName string) *Pages {
	ner, ce := fe.ner, fe.concepts
	p := &Pages{
		Lexicon: analysis.Standard.NewLexicon(), fe: fe,
		firstNames: gazetteerView{g: ner.firstNames}, surnames: gazetteerView{g: ner.surnames},
		orgs: gazetteerView{g: ner.orgs}, locs: gazetteerView{g: ner.locations}, labels: gazetteerView{g: ce.labels},
		fullNames: make(map[[2]int32]string), verdicts: make(map[string]verdict),
		activation: make([]float64, len(ce.names)),
	}
	p.Reset(queryName)
	return p
}

// Reset starts the next block on p, for pages retrieved for queryName. The
// lexicon and the per-token tables carry over, unless the lexicon has
// passed LexiconCap tokens: then they are emptied, keeping their memory,
// and every token ID handed out before is void. The features of pages
// extracted earlier stay valid; their Tokens do not.
func (p *Pages) Reset(queryName string) {
	if len(p.Lexicon.Tokens) > LexiconCap {
		p.Lexicon.Reset()
		for _, v := range p.views() {
			v.cands = v.cands[:0]
		}
		p.triggers = p.triggers[:0]
		clear(p.fullNames)
	}
	p.Tokens = p.Tokens[:0]
	clear(p.verdicts)
	p.query, p.queryLower = textsim.PrepareName(queryName), strings.ToLower(queryName)
}

// views lists the per-token dictionary tables.
func (p *Pages) views() []*gazetteerView {
	return []*gazetteerView{&p.firstNames, &p.surnames, &p.orgs, &p.locs, &p.labels}
}

// Extract computes the full feature bundle for a page from one analysis
// pass over its text and from its URL.
func (p *Pages) Extract(text, url string) DocumentFeatures {
	p.analyze(text)
	p.conceptVector()
	p.entities()

	f := DocumentFeatures{
		ConceptVector: append([]WeightedConcept(nil), p.concepts...),
		Concepts:      p.topConcepts(p.fe.topK),
		Organizations: names(p.organizations),
		Locations:     names(p.places),
		URL:           ParseURL(url),
	}
	if len(p.persons) > 0 {
		f.MostFrequentName = p.persons[0].Name // most frequent first
	}
	// ClosestName (F7) is the mention most similar to the query keyword;
	// OtherPersons (F6) drops the mentions that are the query name itself
	// (near-exact or one-token-containment matches).
	bestScore := -1.0
	for _, e := range p.persons {
		v, ok := p.verdicts[e.Name]
		if !ok {
			v.similarity = textsim.PreparedNameSimilarity(textsim.PrepareName(e.Name), p.query)
			v.isQuery = v.similarity >= 0.95 || containsToken(e.Name, p.queryLower)
			p.verdicts[e.Name] = v
		}
		if v.similarity > bestScore {
			f.ClosestName, bestScore = e.Name, v.similarity
		}
		if !v.isQuery {
			f.OtherPersons = append(f.OtherPersons, e.Name)
		}
	}
	return f
}

// analyze reads the page into Tokens and extends the per-token and per-term
// tables to what the lexicon has now seen.
func (p *Pages) analyze(text string) {
	lx := p.Lexicon
	p.Tokens = lx.AppendIDs(p.Tokens[:0], text)
	for _, v := range p.views() {
		for id := len(v.cands); id < len(lx.Tokens); id++ {
			v.cands = append(v.cands, v.g.first[lx.Tokens[id]])
		}
	}
	for t := len(p.triggers); t < len(lx.Terms); t++ {
		p.triggers = append(p.triggers, p.fe.concepts.triggerOf[lx.Terms[t]])
	}
}

// names returns the entities' names, nil when there are none.
func names(entities []Entity) []string {
	if len(entities) == 0 {
		return nil
	}
	out := make([]string, len(entities))
	for i, e := range entities {
		out[i] = e.Name
	}
	return out
}

// containsToken reports whether any space-separated token of a equals any
// token of b, the heuristic that drops "john smith" and bare "smith"
// mentions for query "smith".
func containsToken(a, b string) bool {
	for _, t := range strings.Split(b, " ") {
		if t != "" && slices.Contains(strings.Split(a, " "), t) {
			return true
		}
	}
	return false
}
