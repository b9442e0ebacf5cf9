// Package simfn implements the ten pairwise similarity functions of the
// paper's Table I. Each function compares two web pages on one extracted
// feature and reports a similarity in [0, 1]:
//
//	F1  weighted concept vector      cosine similarity
//	F2  URL of the page              string/host similarity
//	F3  most frequent name           string similarity
//	F4  concept set                  number of overlapping concepts
//	F5  organization entities        number of overlapping organizations
//	F6  other person names           number of overlapping persons
//	F7  name closest to the query    string similarity
//	F8  TF-IDF word vector           cosine similarity
//	F9  TF-IDF word vector           Pearson correlation similarity
//	F10 TF-IDF word vector           extended Jaccard similarity
//
// The functions operate on prepared Docs (extracted features plus packed
// TF-IDF term and concept vectors); PrepareBlockCtx builds them for a whole
// blocking unit (all pages sharing one ambiguous name, the paper's natural
// blocking scheme).
//
// # Preparing a block: the lexicon and the ID-order contract
//
// PrepareBlockCtx reads every page through a lexicon (analysis.Lexicon)
// that a Workspace keeps from block to block, starting it over only once it
// holds more than extract.LexiconCap tokens: a token occurrence is looked
// up once, everything asked about a distinct token — stopword, stem,
// dictionary entries, concept triggers — is computed once per workspace,
// and term frequencies, document frequencies and weights live in slices
// indexed by the lexicon's term IDs, of which a block writes and reads only
// its own terms'. Strings reappear only at the edges: in Features and in
// Vocab.
//
// The result is bit-identical to preparing each page from strings, and
// whatever blocks the workspace read before, because no order depends on
// lexicon IDs — they depend on that history — and two orders are pinned.
// Vocab IDs are assigned page by page: the page's terms in lexicographic
// order, then its concepts, concept set, organizations and other persons.
// And Σw and Σw² of a packed vector are accumulated in lexicographic order
// of its terms (or concept labels), not in ID order. Vocab order fixes the
// order every later merge join multiplies and adds in, and the sums fix the
// norms, so both decide the last bits of F1 and F8–F10. A page's terms are
// therefore ordered by their lexicographic rank within the block before they
// are weighed. Both orders come without a sort per page: the block's
// postings, grouped by term, are dealt back to their pages rank by rank for
// weighing, and term by term in ID order to lay the vectors out.
//
// # Matrices: the ordered memo, the token table and postings
//
// ComputeAllCtx fills one condensed upper-triangle Matrix per function, and a
// function's Compare is its definition: cell (i, j), i < j, holds the bits
// of Compare(d_i, d_j), however the kernel got there — and whichever other
// functions share the call. A caller that holds only a few matrices at a
// time computes the functions one of Groups at a time: F8-F10, which share
// one join per pair, stay together, so do F3 and F7, which share the token
// table, and the other functions fill groups up to three, so a block's
// cells are never more than three matrices' at once. Three things let the
// kernel get there with less work than one Compare per document pair, and
// all of their values live and die inside one call — nothing is cached
// across calls, persisted, or configurable. Their buffers are another
// matter: a Workspace keeps them, and the matrices' cells, for the next
// block of the same run, cleared where a value is read before it is
// written (see Workspace).
//
// A Func may declare Key, a string per document, under this contract:
// whenever Key(a) != Key(b), Compare(a, b) reads nothing of a and b but
// what the two keys determine. (When the keys are equal Compare may read
// anything; F2's same-host branch compares URL paths.) The pages of a block
// share few distinct values of such a feature — a hundred WWW'05 pages
// carry 3–43 distinct names and 26–46 hosts — so the kernel interns the
// keys per call and evaluates Compare once per ordered pair of distinct
// keys, calling it directly for same-key pairs and for blocks whose keys
// are too distinct for a table to save anything. F2 (URL host), F3 (most
// frequent name) and F7 (closest name) are keyed.
//
// The memo is keyed by the ordered pair (Key(d_i), Key(d_j)), not the
// unordered one, because nothing obliges Compare to be symmetric:
// Jaro's greedy character matching, under F2, F3 and F7, is not guaranteed
// to give Jaro(x, y) == Jaro(y, x) bit for bit. The matrix always holds
// Compare(d_i, d_j) with i < j, so a value computed for (x, y) may stand in
// for another pair with keys (x, y) but never for one with keys (y, x).
//
// F3 and F7 score two different names as the larger of Jaro-Winkler on the
// whole names and Monge-Elkan over their tokens, and a block's names share
// few distinct tokens. The kernel therefore interns the tokens of both
// functions' names per call and keeps Jaro-Winkler per ordered pair of
// distinct tokens in one table of the same complemented atomic bits, which
// textsim.NameSimilarityOf reads through the very Monge-Elkan loop
// PreparedNameSimilarity runs; the whole-name value still goes through the
// key memo. The table fills lazily — a cell is computed the first time a
// pair of names asks for it — so its T² cells cost memory, not
// evaluations. It is therefore bounded by the call: it is left out only
// when T² exceeds the cells of all the call's matrices (the number of
// functions times the block's document pairs; three matrices for the group
// of F3 and F7), so it never holds more than the call already allocates.
//
// F1 and F8-F10 are measures of two packed vectors' join — F8, F9 and F10
// of the same two TF-IDF vectors — and F4-F6 count the join of two ID sets.
// The kernel inverts each vector or set family once per call into postings:
// for every Vocab ID, the documents that hold it in ascending order, with
// their weights. Row i walks d_i's IDs in ascending order and, for each,
// only the postings of the later documents that share it, adding the
// product of the two weights to that pair's accumulator and 1 to its
// count. A pair therefore costs its intersection, not its two vectors.
// Each cell receives exactly the products the merge join multiplies, added
// in the same ascending-ID order starting from zero, so the dot product and
// the intersection size have DotIntersect's (and IntersectSortedCount's)
// bits whatever the scheduling; F8-F10 share one accumulator per pair
// (textsim's OfDot forms), and F4-F6 read only the count.
package simfn

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/textsim"
)

// Doc bundles everything the similarity functions consume for one page:
// the extracted features and, built from them by PrepareBlockCtx against
// the block's Vocab, the packed forms the pairwise hot loop reads. The
// packed forms are the only vector forms a Doc has; Unpack gives the map
// form of one. On a Doc that did not come from PrepareBlockCtx a nil vector
// or ID set reads as empty, and an empty feature carries no evidence: the
// function over it scores 0. A prepared Doc is immutable and safe for
// concurrent reads.
type Doc struct {
	// Features is the information-extraction output for the page.
	Features extract.DocumentFeatures
	// Packed is the TF-IDF weighted word vector over the block corpus:
	// interned, sorted, with precomputed norm and Pearson statistics
	// (F8-F10).
	Packed *textsim.PackedVector
	// ConceptPacked is the packed form of Features.ConceptVector (F1).
	ConceptPacked *textsim.PackedVector
	// ConceptSet, OrgSet and PersonSet are the deduplicated, sorted
	// interned-ID forms of the F4-F6 entity sets.
	ConceptSet, OrgSet, PersonSet []int32
	// FrequentName and ClosestName are the prepared (pre-normalized,
	// pre-tokenized) forms of the F3 and F7 name features.
	FrequentName, ClosestName textsim.Name
}

// Block is a prepared blocking unit: the documents of one collection with
// extracted features and block-local TF-IDF statistics. The paper computes
// similarities only within blocks ("documents which are about a person with
// the same name").
type Block struct {
	// Name is the ambiguous query name of the block.
	Name string
	// Docs are the prepared documents, parallel to the collection's Docs.
	Docs []Doc
	// Truth is the ground-truth persona label per document, carried along
	// for training-sample selection and evaluation.
	Truth []int
	// NumPersonas is the ground-truth number of entities.
	NumPersonas int
	// Vocab is the block-local term/entity interning table the packed
	// document forms were built against; custom similarity functions can
	// use it to pack their own features.
	Vocab *textsim.Vocab
}

// PrepareBlockCtx extracts features and builds TF-IDF vectors for every page
// of a collection. A nil extractor selects the shared default built on the
// wordlists. IDF statistics are block-local, mirroring a per-name Lucene
// index. The context is checked between documents, so a canceled or
// timed-out context aborts block preparation promptly with ctx.Err().
//
// The first pass extracts every page's features and counts its terms by
// ID. Once the block's document frequencies and the terms' lexicographic
// ranks are known, the second weighs, sums and interns page by page, each
// page's terms in rank order, and the term vectors are then laid out in ID
// order. Both orders come from walking the block's postings grouped by
// term, not from a sort per page.
//
// It is Workspace.PrepareBlock on a fresh workspace, so the block it
// returns owns all of its memory.
func PrepareBlockCtx(ctx context.Context, col *corpus.Collection, fe *extract.FeatureExtractor) (*Block, error) {
	return new(Workspace).PrepareBlock(ctx, col, fe)
}

// PrepareBlock is PrepareBlockCtx on the workspace's memory: the block it
// returns — its documents, vocabulary and packed vectors — is valid until
// the workspace's next PrepareBlock.
func (ws *Workspace) PrepareBlock(ctx context.Context, col *corpus.Collection, fe *extract.FeatureExtractor) (*Block, error) {
	if fe == nil {
		fe = extract.DefaultFeatureExtractor()
	}
	n := len(col.Docs)
	if ws.vocab == nil {
		ws.vocab = textsim.NewVocab()
	}
	ws.vocab.Reset()
	if ws.docs == nil || cap(ws.docs) < n {
		ws.docs = make([]Doc, n) // never nil: an empty block has empty Docs
	}
	ws.docs = ws.docs[:n]
	clear(ws.docs)
	b := &Block{
		Name:        col.Name,
		Docs:        ws.docs,
		Truth:       col.GroundTruth(),
		NumPersonas: col.NumPersonas,
		Vocab:       ws.vocab,
	}
	if ws.pages == nil || ws.fe != fe {
		ws.pages, ws.fe = fe.NewPages(col.Name), fe
	} else {
		ws.pages.Reset(col.Name)
	}
	pages, sc := ws.pages, &ws.prep
	lx := pages.Lexicon
	// tf, df, rank, idf and vocabID are indexed by lexicon term ID, and
	// only the block's own terms' entries are written or read. The
	// lexicon outlives the block, so df starts cleared.
	clear(sc.df)
	var (
		postings = sc.postings[:0]                 // term ID<<32 | tf of every page's distinct terms, page after page
		ends     = slices.Grow(sc.ends[:0], n)[:n] // where page i's postings end
		tf, df   = sc.tf, sc.df                    // tf is zero between pages
		entries  int                               // of all the block's packed vectors
	)
	for i, d := range col.Docs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.Docs[i].Features = pages.Extract(d.Text, d.URL)
		for len(tf) < len(lx.Terms) {
			tf, df = append(tf, 0), append(df, 0)
		}
		first := len(postings)
		for _, tok := range pages.Tokens {
			if t := lx.TermOf[tok]; t >= 0 {
				if tf[t] == 0 {
					postings = append(postings, uint64(t)<<32)
				}
				tf[t]++
			}
		}
		for j, p := range postings[first:] {
			postings[first+j] = p | uint64(tf[p>>32])
			tf[p>>32] = 0
			df[p>>32]++
		}
		ends[i] = len(postings)
		entries += len(b.Docs[i].Features.ConceptVector)
	}
	entries += len(postings)
	sc.postings, sc.ends, sc.tf, sc.df = postings, ends, tf, df

	// byRank lists the block's terms lexicographically and rank inverts it.
	// A page's terms are weighed, summed and interned in rank order: the
	// ID-order contract of the package documentation. Which lexicon IDs the
	// terms carry decides nothing: the strings order them.
	lexTerms := len(lx.Terms)
	byRank := slices.Grow(sc.byRank[:0], lexTerms)
	for t, c := range df {
		if c > 0 {
			byRank = append(byRank, int32(t))
		}
	}
	terms := len(byRank)
	slices.SortFunc(byRank, func(a, b int32) int { return strings.Compare(lx.Terms[a], lx.Terms[b]) })
	rank := slices.Grow(sc.rank[:0], lexTerms)[:lexTerms]
	idf := slices.Grow(sc.idf[:0], lexTerms)[:lexTerms]
	vocabID := slices.Grow(sc.vocabID[:0], lexTerms)[:lexTerms] // of a term, -1 until interned
	for r, t := range byRank {
		rank[t] = uint32(r)
		idf[t] = math.Log(1 + float64(n)/float64(df[t]))
		vocabID[t] = -1
	}
	sc.byRank, sc.rank, sc.idf, sc.vocabID = byRank, rank, idf, vocabID

	// Regroup the postings by term in rank order — term byRank[r]'s are
	// grouped[from[r]:from[r+1]], page<<32 | tf, pages ascending — and deal
	// them back to their pages rank by rank: every page's postings then come
	// in rank order without a sort per page, and each grouped entry keeps
	// where its posting went in place of its tf.
	from := slices.Grow(sc.from[:0], terms+1)[:terms+1]
	from[0] = 0
	for r, t := range byRank {
		from[r+1] = int32(df[t])
	}
	for r := range byRank {
		from[r+1] += from[r]
	}
	grouped := slices.Grow(sc.grouped[:0], len(postings))[:len(postings)]
	next := append(sc.next[:0], from...)
	for i, at := 0, 0; at < len(postings); at++ {
		for at == ends[i] {
			i++
		}
		r := rank[postings[at]>>32]
		grouped[next[r]] = uint64(i)<<32 | postings[at]&math.MaxUint32
		next[r]++
	}
	free := slices.Grow(sc.free[:0], n)[:n] // where page i's next posting goes
	if n > 0 {
		free[0] = 0
	}
	for i := 1; i < n; i++ {
		free[i] = ends[i-1]
	}
	for r := range byRank {
		for k := from[r]; k < from[r+1]; k++ {
			i := grouped[k] >> 32
			postings[free[i]] = uint64(r)<<32 | grouped[k]&math.MaxUint32
			grouped[k] = i<<32 | uint64(free[i])
			free[i]++
		}
	}
	sc.from, sc.grouped, sc.next, sc.free = from, grouped, next, free

	// Every packed vector's IDs and weights are carved from two arrays. A
	// page's terms are weighed, summed and interned in rank order here, and
	// laid out in ID order below.
	pk := &sc.pk
	pk.reset(entries)
	vecs := slices.Grow(sc.terms[:0], n)[:n]
	clear(vecs)
	sc.terms = vecs
	start := 0
	for i := range b.Docs {
		d, v := &b.Docs[i], &vecs[i]
		for at := start; at < ends[i]; at++ {
			t := byRank[postings[at]>>32]
			// (1 + ln tf) · ln(1 + N/df), Lucene's classic practical
			// scoring combination.
			w := (1 + math.Log(float64(uint32(postings[at])))) * idf[t]
			v.sum += w
			v.sumSq += w * w
			if vocabID[t] < 0 {
				vocabID[t] = b.Vocab.ID(lx.Terms[t])
			}
			postings[at] = math.Float64bits(w) // read once; the weight from here on
		}
		ids, weights := pk.carve(ends[i] - start)
		v.ids, v.weights = ids[:0], weights[:0] // filled to capacity below
		start = ends[i]
		concepts := d.Features.ConceptVector
		d.ConceptPacked = pk.pack(len(concepts), func(j int) (int32, float64) {
			return b.Vocab.ID(concepts[j].Name), concepts[j].Weight
		})
		d.ConceptSet = textsim.InternSet(b.Vocab, d.Features.Concepts)
		d.OrgSet = textsim.InternSet(b.Vocab, d.Features.Organizations)
		d.PersonSet = textsim.InternSet(b.Vocab, d.Features.OtherPersons)
		d.FrequentName = textsim.PrepareName(d.Features.MostFrequentName)
		d.ClosestName = textsim.PrepareName(d.Features.ClosestName)
	}
	// The terms in ID order, each dealt to its pages, fill every term
	// vector in ID order without a sort per page.
	byID := slices.Grow(sc.byID[:0], terms)[:terms]
	for r, t := range byRank {
		byID[r] = uint64(vocabID[t])<<32 | uint64(r)
	}
	slices.Sort(byID)
	sc.byID = byID
	for _, key := range byID {
		r := uint32(key)
		for _, g := range grouped[from[r]:from[r+1]] {
			v := &vecs[g>>32]
			v.ids = append(v.ids, int32(key>>32))
			v.weights = append(v.weights, math.Float64frombits(postings[g&math.MaxUint32]))
		}
	}
	for i, v := range vecs {
		b.Docs[i].Packed = textsim.PackedWithSums(v.ids, v.weights, v.sum, v.sumSq)
	}
	return b, nil
}

// prepScratch is PrepareBlock's per-block memory, kept by a Workspace. Each
// slice is named after the local it backs; pk's two arrays hold the packed
// vectors of the last block prepared.
type prepScratch struct {
	postings, grouped, byID []uint64
	ends, free              []int
	tf, df, rank            []uint32
	byRank, from, next      []int32
	vocabID                 []int32
	idf                     []float64
	terms                   []termVector
	pk                      packer
}

// termVector is one page's term vector while PrepareBlock lays it out.
type termVector struct {
	ids        []int32
	weights    []float64
	sum, sumSq float64
}

// packer carves packed vectors from the front of two per-block arrays.
type packer struct {
	ids     []int32
	weights []float64
	keys    []uint64 // scratch: Vocab ID<<32 | position in summation order
	ws      []float64
	// idsMem and weightsMem are the whole arrays ids and weights are the
	// uncarved rest of, kept for the next block.
	idsMem     []int32
	weightsMem []float64
}

// reset makes the two arrays n entries long for a new block, reusing their
// memory when it is large enough.
func (pk *packer) reset(n int) {
	pk.idsMem = slices.Grow(pk.idsMem[:0], n)[:n]
	pk.weightsMem = slices.Grow(pk.weightsMem[:0], n)[:n]
	pk.ids, pk.weights = pk.idsMem, pk.weightsMem
}

// carve takes the next n entries of the two arrays.
func (pk *packer) carve(n int) ([]int32, []float64) {
	ids, weights := pk.ids[:n:n], pk.weights[:n:n]
	pk.ids, pk.weights = pk.ids[n:], pk.weights[n:]
	return ids, weights
}

// pack builds the vector of the n entries entry yields in summation order,
// the order Σw and Σw² are accumulated in, and stores it in ID order.
func (pk *packer) pack(n int, entry func(j int) (id int32, w float64)) *textsim.PackedVector {
	pk.keys, pk.ws = pk.keys[:0], pk.ws[:0]
	var sum, sumSq float64
	for j := 0; j < n; j++ {
		id, w := entry(j)
		sum += w
		sumSq += w * w
		pk.keys, pk.ws = append(pk.keys, uint64(id)<<32|uint64(j)), append(pk.ws, w)
	}
	slices.Sort(pk.keys)
	ids, weights := pk.carve(n)
	for j, key := range pk.keys {
		ids[j], weights[j] = int32(key>>32), pk.ws[uint32(key)]
	}
	return textsim.PackedWithSums(ids, weights, sum, sumSq)
}

// Func is one pairwise similarity function with its Table I metadata.
// The Table I functions ByID and Subset return also carry unexported
// evaluation hints derived from their Compare, so build a custom function
// from a fresh literal rather than by replacing a Table I function's Compare.
type Func struct {
	// ID is the paper's function label ("F1" … "F10").
	ID string
	// Feature describes what the function compares.
	Feature string
	// Measure describes the similarity measure used.
	Measure string
	// Compare returns the similarity of two prepared documents in [0, 1].
	Compare func(a, b *Doc) float64
	// Key, when non-nil, promises that whenever Key(a) != Key(b),
	// Compare(a, b) reads nothing of the two documents but what their keys
	// determine. The matrix kernel then evaluates Compare once per ordered
	// pair of distinct keys in a block instead of once per document pair;
	// documents with equal keys are always compared directly. See the
	// package documentation for why the pair is ordered.
	Key func(d *Doc) string

	// join marks a function that is a measure of two packed vectors' join,
	// so functions over the same vectors can share one join per pair.
	join *vectorJoin
	// name marks a name function (F3, F7): whenever both keys are non-empty
	// and differ, Compare is clamp01 of PreparedNameSimilarity of the two
	// prepared names name returns, so the kernel may look its token
	// Jaro-Winkler values up in a per-call table.
	name func(*Doc) *textsim.Name
	// set marks an overlap function (F4-F6): Compare is overlap of the
	// intersection size of the two ascending, deduplicated ID sets set
	// returns, so the kernel may count a row's intersections through
	// postings.
	set func(*Doc) []int32
}

// vectorJoin is a vector-space function (F1, F8-F10): which packed vectors
// it reads and the measure applied to the pair's join.
type vectorJoin struct {
	vecs  *packedVectors
	ofDot func(a, b *textsim.PackedVector, dot float64, inter int) float64
}

// packedVectors is one kind of packed vector a Doc carries. Joins that read
// the same *packedVectors share one join per pair.
type packedVectors struct {
	of func(*Doc) *textsim.PackedVector
}

// sharesWork reports whether one kernel call computing a and b does work
// for both at once: the join of the same packed vectors, or the token table
// of two name functions.
func sharesWork(a, b *Func) bool {
	return a.join != nil && b.join != nil && a.join.vecs == b.join.vecs || a.name != nil && b.name != nil
}

// value is the function's similarity of two packed vectors given
// a.DotIntersect(b): an empty vector carries no evidence and scores 0.
func (vj *vectorJoin) value(a, b *textsim.PackedVector, dot float64, inter int) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return clamp01(vj.ofDot(a, b, dot, inter))
}

// vectorFunc builds a vector-space function from its join.
func vectorFunc(id, feature, measure string, vj *vectorJoin) Func {
	return Func{
		ID: id, Feature: feature, Measure: measure, join: vj,
		Compare: func(a, b *Doc) float64 {
			pa, pb := vj.vecs.of(a), vj.vecs.of(b)
			dot, inter := pa.DotIntersect(pb)
			return vj.value(pa, pb, dot, inter)
		},
	}
}

// nameFunc builds a name-string function (F3, F7) over one raw name
// feature and its prepared form. The raw name is the key: the prepared
// form is a function of it, and two different names are compared through
// nothing else. The prepared form is also the function's name hint.
func nameFunc(id, feature string, raw func(*Doc) string, prepared func(*Doc) *textsim.Name) Func {
	return Func{
		ID: id, Feature: feature, Measure: "String Similarity",
		Key: raw, name: prepared,
		Compare: func(a, b *Doc) float64 {
			if raw(a) == "" || raw(b) == "" {
				return 0
			}
			return clamp01(textsim.PreparedNameSimilarity(*prepared(a), *prepared(b)))
		},
	}
}

// overlapHalf is the saturation constant for the overlap-count functions
// F4-F6: an overlap of two shared entities maps to 0.5.
const overlapHalf = 2

// overlap is the similarity of the overlap-count functions F4-F6 given the
// number of shared entities.
func overlap(count int) float64 {
	return textsim.NormalizedOverlap(count, overlapHalf)
}

// overlapFunc builds an overlap-count function (F4-F6) over one interned
// entity set, which is also its set hint.
func overlapFunc(id, feature, measure string, set func(*Doc) []int32) Func {
	return Func{
		ID: id, Feature: feature, Measure: measure, set: set,
		Compare: func(a, b *Doc) float64 {
			return overlap(textsim.IntersectSortedCount(set(a), set(b)))
		},
	}
}

// tableI is the paper's Table I: the ten similarity functions in order
// F1..F10, built once. ByID and Subset hand out copies of its entries and
// nothing writes it.
var tableI = func() []Func {
	concepts := &packedVectors{of: func(d *Doc) *textsim.PackedVector { return d.ConceptPacked }}
	words := &packedVectors{of: func(d *Doc) *textsim.PackedVector { return d.Packed }}
	return []Func{
		vectorFunc("F1", "Weighted Concept Vector", "Cosine Similarity",
			&vectorJoin{vecs: concepts, ofDot: textsim.PackedCosineOfDot}),
		{
			ID: "F2", Feature: "URL of the page", Measure: "String Similarity",
			// ParseURL derives the domain from the host, and two different
			// hosts are compared through nothing else.
			Key: func(d *Doc) string { return d.Features.URL.Host },
			Compare: func(a, b *Doc) float64 {
				return clamp01(extract.URLSimilarity(a.Features.URL, b.Features.URL))
			},
		},
		nameFunc("F3", "Most frequent name on the page",
			func(d *Doc) string { return d.Features.MostFrequentName },
			func(d *Doc) *textsim.Name { return &d.FrequentName }),
		overlapFunc("F4", "Concepts Vector", "Number of overlapping concepts",
			func(d *Doc) []int32 { return d.ConceptSet }),
		overlapFunc("F5", "Organizations Entities on the page", "Number of overlapping organizations",
			func(d *Doc) []int32 { return d.OrgSet }),
		overlapFunc("F6", "Other Person-Names on the page", "Number of overlapping persons",
			func(d *Doc) []int32 { return d.PersonSet }),
		nameFunc("F7", "The name closest to the search keyword",
			func(d *Doc) string { return d.Features.ClosestName },
			func(d *Doc) *textsim.Name { return &d.ClosestName }),
		vectorFunc("F8", "TF-IDF words vector", "Cosine Similarity",
			&vectorJoin{vecs: words, ofDot: textsim.PackedCosineOfDot}),
		vectorFunc("F9", "TF-IDF words vector", "Pearson Correlation similarity",
			&vectorJoin{vecs: words, ofDot: textsim.PackedPearsonSimOfDot}),
		vectorFunc("F10", "TF-IDF words vector", "Extended Jaccard similarity",
			&vectorJoin{vecs: words, ofDot: textsim.PackedExtendedJaccardOfDot}),
	}
}()

// ByID returns the Table I function with the given ID.
func ByID(id string) (Func, error) {
	for _, f := range tableI {
		if f.ID == id {
			return f, nil
		}
	}
	return Func{}, fmt.Errorf("simfn: unknown function %q", id)
}

// Subset returns the Table I functions with the given IDs, in the given
// order, in a new slice: Subset(SubsetI10) is the whole table (the paper's
// I4/I7/I10 experiments use SubsetI4, SubsetI7 and SubsetI10).
func Subset(ids []string) ([]Func, error) {
	out := make([]Func, 0, len(ids))
	for _, id := range ids {
		f, err := ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Paper's function subsets for Table II.
var (
	// SubsetI4 is the paper's I4/C4 set {F4, F5, F7, F9}.
	SubsetI4 = []string{"F4", "F5", "F7", "F9"}
	// SubsetI7 is the paper's I7/C7 set {F3, F4, F5, F7, F8, F9, F10}.
	SubsetI7 = []string{"F3", "F4", "F5", "F7", "F8", "F9", "F10"}
	// SubsetI10 is all ten functions.
	SubsetI10 = []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10"}
)

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
