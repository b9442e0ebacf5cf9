package extract

import (
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/textsim"
	"repro/internal/wordlists"
)

// ConceptExtractor maps document text onto a weighted vector of
// Wikipedia-style concepts, simulating the SemanticHacker service of the
// paper's pipeline (used by similarity functions F1 and F4).
//
// Each concept is activated by its associated trigger terms (the stemmed
// topical vocabulary of the concept's topic) and by literal mentions of the
// concept label itself; the concept weight is the normalized activation.
type ConceptExtractor struct {
	// triggers maps stemmed trigger term → list of (concept, weight).
	triggers map[string][]conceptTrigger
	labels   *Gazetteer
	// labelConcept maps the canonical gazetteer form back to the concept.
	labelConcept map[string]string
}

type conceptTrigger struct {
	concept string
	weight  float64
}

// NewConceptExtractor builds an extractor from a topic → concepts map and a
// topic → vocabulary map: every concept of a topic is triggered by every
// vocabulary word of that topic (weight 1), and strongly (weight 3) by its
// own label tokens.
func NewConceptExtractor(concepts map[string][]string, topicWords map[string][]string) *ConceptExtractor {
	ce := &ConceptExtractor{
		triggers:     make(map[string][]conceptTrigger),
		labelConcept: make(map[string]string),
	}
	var allLabels []string
	for topic, clist := range concepts {
		words := topicWords[topic]
		for _, concept := range clist {
			for _, w := range words {
				stem := analysis.PorterStem(strings.ToLower(w))
				ce.triggers[stem] = append(ce.triggers[stem], conceptTrigger{concept: concept, weight: 1})
			}
			allLabels = append(allLabels, concept)
			canonical := strings.ToLower(concept)
			ce.labelConcept[canonical] = concept
		}
	}
	ce.labels = NewGazetteer(allLabels)
	return ce
}

// DefaultConceptExtractor returns an extractor over the built-in concept
// dictionary shared with the corpus generator.
func DefaultConceptExtractor() *ConceptExtractor {
	return NewConceptExtractor(wordlists.Concepts, wordlists.TopicWords)
}

// Extract analyzes text and returns its concept vector; see ExtractTokens.
func (ce *ConceptExtractor) Extract(text string) textsim.SparseVector {
	return ce.ExtractTokens(analysis.Standard.Analyze(text))
}

// ExtractTokens returns the weighted concept vector of a page given as its
// lower-cased tokens and standard-chain terms, L2-normalized so that cosine
// comparisons (F1) are well scaled. The vector is empty when no concept is
// activated.
func (ce *ConceptExtractor) ExtractTokens(lower, terms []string) textsim.SparseVector {
	v := textsim.NewSparseVector()
	// Trigger-word activation over the analyzed (stemmed) terms.
	for _, term := range terms {
		for _, tr := range ce.triggers[term] {
			v.Add(tr.concept, tr.weight)
		}
	}
	// Literal label mentions are strong evidence. Labels are matched on
	// the unstemmed tokens, since entity names may contain stopwords.
	for _, m := range ce.labels.FindAll(lower) {
		if concept, ok := ce.labelConcept[m.Canonical]; ok {
			v.Add(concept, 3)
		}
	}
	if n := v.Norm(); n > 0 {
		v.Scale(1 / n)
	}
	return v
}

// TopConcepts returns the k highest-weighted concept labels of a concept
// vector, in decreasing weight order (ties broken lexicographically). This
// is the unweighted concept set used by the overlap-based function F4.
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
