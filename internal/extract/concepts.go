package extract

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/analysis"
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
	// names are the concept labels in lexicographic order; a concept's ID
	// is its index, so walking IDs upwards walks the labels in the order
	// the packed vectors are summed in.
	names []string
	// triggerOf maps a stemmed trigger term to the index in triggers of
	// the IDs of the concepts it activates with weight 1, one entry per
	// (topic word, concept) pair; triggers[0] is empty, the index of a term
	// that triggers nothing.
	triggerOf map[string]int32
	triggers  [][]int32
	labels    *Gazetteer
	// labelConcept maps the canonical gazetteer form back to the concept.
	labelConcept map[string]int32
}

// NewConceptExtractor builds an extractor from a topic → concepts map and a
// topic → vocabulary map: every concept of a topic is triggered by every
// vocabulary word of that topic (weight 1), and strongly (weight 3) by a
// literal mention of its own label.
func NewConceptExtractor(concepts map[string][]string, topicWords map[string][]string) *ConceptExtractor {
	ce := &ConceptExtractor{
		triggerOf:    make(map[string]int32),
		triggers:     [][]int32{nil},
		labelConcept: make(map[string]int32),
	}
	for _, clist := range concepts {
		ce.names = append(ce.names, clist...)
	}
	slices.Sort(ce.names)
	ce.names = slices.Compact(ce.names)
	for topic, clist := range concepts {
		for _, concept := range clist {
			id, _ := slices.BinarySearch(ce.names, concept)
			for _, w := range topicWords[topic] {
				stem := analysis.PorterStem(strings.ToLower(w))
				at, ok := ce.triggerOf[stem]
				if !ok {
					at = int32(len(ce.triggers))
					ce.triggerOf[stem] = at
					ce.triggers = append(ce.triggers, nil)
				}
				ce.triggers[at] = append(ce.triggers[at], int32(id))
			}
		}
	}
	for id, name := range ce.names {
		ce.labelConcept[strings.ToLower(name)] = int32(id)
	}
	ce.labels = NewGazetteer(ce.names)
	return ce
}

// DefaultConceptExtractor returns an extractor over the built-in concept
// dictionary shared with the corpus generator.
func DefaultConceptExtractor() *ConceptExtractor {
	return NewConceptExtractor(wordlists.Concepts, wordlists.TopicWords)
}

// WeightedConcept is one entry of a page's concept vector.
type WeightedConcept struct {
	Name   string
	Weight float64
}

// conceptVector leaves in p.concepts the weighted concept vector of the page
// in p.Tokens, in lexicographic label order (the order its packed form is
// summed in), L2-normalized so that cosine comparisons (F1) are well scaled. The vector is empty when no concept is
// activated. Activations accumulate in a dense per-concept slice.
func (p *Pages) conceptVector() {
	ce, act := p.fe.concepts, p.activation
	p.active = p.active[:0]
	activate := func(c int32, w float64) {
		if act[c] == 0 {
			p.active = append(p.active, c)
		}
		act[c] += w
	}
	// Trigger-word activation over the analyzed (stemmed) terms.
	for _, tok := range p.Tokens {
		if t := p.Lexicon.TermOf[tok]; t >= 0 {
			for _, c := range ce.triggers[p.triggers[t]] {
				activate(c, 1)
			}
		}
	}
	// Literal label mentions are strong evidence. Labels are matched on
	// the unstemmed tokens, since entity names may contain stopwords.
	p.matches = p.labels.appendMatches(p.matches[:0], p.Tokens, p.Lexicon.Tokens)
	for _, m := range p.matches {
		if c, ok := ce.labelConcept[m.canonical]; ok {
			activate(c, 3)
		}
	}
	// Activations are small integers, so their squares sum exactly in any
	// order: the weights are the same bits whatever order the concepts
	// were activated in.
	var sumSq float64
	for _, c := range p.active {
		sumSq += act[c] * act[c]
	}
	scale := 1 / math.Sqrt(sumSq)
	slices.Sort(p.active)
	p.concepts = p.concepts[:0]
	for _, c := range p.active {
		p.concepts = append(p.concepts, WeightedConcept{ce.names[c], act[c] * scale})
		act[c] = 0
	}
}

// topConcepts returns the k highest-weighted labels of p.concepts, in
// decreasing weight order (ties broken lexicographically). This is the
// unweighted concept set used by the overlap-based function F4.
//
// p.concepts is in lexicographic order, so a stable sort by decreasing
// weight gives that order; p.top keeps the positions of only its first k
// entries, each concept inserted after every kept one of at least its
// weight.
func (p *Pages) topConcepts(k int) []string {
	top := p.top[:0]
	for i, c := range p.concepts {
		at := len(top)
		for at > 0 && cmp.Less(p.concepts[top[at-1]].Weight, c.Weight) {
			at--
		}
		if at == k {
			continue
		}
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[at+1:], top[at:])
		top[at] = int32(i)
	}
	p.top = top
	out := make([]string, len(top))
	for i, c := range top {
		out[i] = p.concepts[c].Name
	}
	return out
}
