package simfn

import (
	"math"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/index"
	"repro/internal/textsim"
)

// Pack interns the document's term and concept vectors, given as maps, and
// its entity sets through the block vocabulary: what PrepareBlockCtx did
// for every document before it packed from term IDs, and how the tests pack
// a hand-built Doc. Documents of one block must be packed against the same
// Vocab, in a fixed order.
func (d *Doc) Pack(vocab *textsim.Vocab, terms, concepts textsim.SparseVector) {
	d.Packed = terms.Pack(vocab)
	d.ConceptPacked = concepts.Pack(vocab)
	d.ConceptSet = textsim.InternSet(vocab, d.Features.Concepts)
	d.OrgSet = textsim.InternSet(vocab, d.Features.Organizations)
	d.PersonSet = textsim.InternSet(vocab, d.Features.OtherPersons)
	d.FrequentName = textsim.PrepareName(d.Features.MostFrequentName)
	d.ClosestName = textsim.PrepareName(d.Features.ClosestName)
}

// prepareBlockReference is the string form of PrepareBlockCtx, the block
// preparation as it ran before the lexicon kernel: every page is analyzed
// on its own, an inverted index keyed by term strings weighs the pages,
// and every document is packed from its maps — sort the strings, hash each
// into the Vocab. (The features come from the one-page Extract, which
// internal/extract pins to its own string forms.)
func prepareBlockReference(col *corpus.Collection, fe *extract.FeatureExtractor) *Block {
	ix := index.New(nil)
	b := &Block{
		Name:        col.Name,
		Docs:        make([]Doc, len(col.Docs)),
		Truth:       col.GroundTruth(),
		NumPersonas: col.NumPersonas,
		Vocab:       textsim.NewVocab(),
	}
	for i, d := range col.Docs {
		ix.Add(col.Name, d.Text)
		b.Docs[i].Features = fe.Extract(d.Text, d.URL, col.Name)
	}
	for i, v := range ix.AllVectors() {
		concepts := textsim.NewSparseVector()
		for _, c := range b.Docs[i].Features.ConceptVector {
			concepts[c.Name] = c.Weight
		}
		b.Docs[i].Pack(b.Vocab, v, concepts)
	}
	return b
}

// fallbackCompare is the ten functions over the map and string forms of a
// prepared block's documents — unpacked vectors, Features strings, the map
// measures — as the Table I functions evaluated them on a Doc without
// packed fields while they had that leg. It returns Compare by document
// positions, per function ID.
func fallbackCompare(b *Block) map[string]func(i, j int) float64 {
	terms := make([]textsim.SparseVector, len(b.Docs))
	concepts := make([]textsim.SparseVector, len(b.Docs))
	for i, d := range b.Docs {
		terms[i], concepts[i] = d.Packed.Unpack(b.Vocab), d.ConceptPacked.Unpack(b.Vocab)
	}
	vector := func(vecs []textsim.SparseVector, sim func(a, b textsim.SparseVector) float64) func(i, j int) float64 {
		return func(i, j int) float64 {
			if len(vecs[i]) == 0 || len(vecs[j]) == 0 {
				return 0
			}
			return clamp01(sim(vecs[i], vecs[j]))
		}
	}
	overlap := func(set func(*extract.DocumentFeatures) []string) func(i, j int) float64 {
		return func(i, j int) float64 {
			n := textsim.SetOverlapCount(set(&b.Docs[i].Features), set(&b.Docs[j].Features))
			return textsim.NormalizedOverlap(n, overlapHalf)
		}
	}
	name := func(raw func(*extract.DocumentFeatures) string) func(i, j int) float64 {
		return func(i, j int) float64 {
			ra, rb := raw(&b.Docs[i].Features), raw(&b.Docs[j].Features)
			if ra == "" || rb == "" {
				return 0
			}
			return clamp01(textsim.PreparedNameSimilarity(textsim.PrepareName(ra), textsim.PrepareName(rb)))
		}
	}
	return map[string]func(i, j int) float64{
		"F1": vector(concepts, textsim.Cosine),
		"F2": func(i, j int) float64 {
			return clamp01(extract.URLSimilarity(b.Docs[i].Features.URL, b.Docs[j].Features.URL))
		},
		"F3":  name(func(f *extract.DocumentFeatures) string { return f.MostFrequentName }),
		"F4":  overlap(func(f *extract.DocumentFeatures) []string { return f.Concepts }),
		"F5":  overlap(func(f *extract.DocumentFeatures) []string { return f.Organizations }),
		"F6":  overlap(func(f *extract.DocumentFeatures) []string { return f.OtherPersons }),
		"F7":  name(func(f *extract.DocumentFeatures) string { return f.ClosestName }),
		"F8":  vector(terms, textsim.Cosine),
		"F9":  vector(terms, pearsonSim),
		"F10": vector(terms, extendedJaccard),
	}
}

// extendedJaccard is the map form of F10's measure, a·b / (|a|² + |b|² − a·b).
func extendedJaccard(a, b textsim.SparseVector) float64 {
	dot := a.Dot(b)
	na, nb := a.Norm(), b.Norm()
	den := na*na + nb*nb - dot
	if den <= 0 {
		return 0
	}
	return dot / den
}

// pearsonSim is the map form of F9's measure by its definition: the Pearson
// correlation of the two vectors over the union of their supports, a term
// one of them lacks weighing 0 there, rescaled from [-1, 1] to [0, 1]; 0.5
// when either has no variance.
func pearsonSim(a, b textsim.SparseVector) float64 {
	union := a.Clone()
	for t := range b {
		union[t] += 0
	}
	n := float64(len(union))
	var ma, mb float64
	for t := range union {
		ma, mb = ma+a[t]/n, mb+b[t]/n
	}
	var sxy, sxx, syy float64
	for t := range union {
		sxy += (a[t] - ma) * (b[t] - mb)
		sxx += (a[t] - ma) * (a[t] - ma)
		syy += (b[t] - mb) * (b[t] - mb)
	}
	if sxx <= 1e-15 || syy <= 1e-15 {
		return 0.5
	}
	return (min(max(sxy/math.Sqrt(sxx*syy), -1), 1) + 1) / 2
}

// ComputeMatrixSerial is the single-goroutine reference implementation of
// ComputeMatrix: the definition of a similarity matrix, one Compare per
// document pair, with no knowledge of keys or shared joins. The kernel in
// matrix.go must match it bit for bit.
func ComputeMatrixSerial(b *Block, f Func) *Matrix {
	m := NewMatrix(len(b.Docs))
	for i := range b.Docs {
		for j := i + 1; j < len(b.Docs); j++ {
			m.Set(i, j, f.Compare(&b.Docs[i], &b.Docs[j]))
		}
	}
	return m
}

// ComputeAllSerial is the single-goroutine reference implementation of
// ComputeAllCtx.
func ComputeAllSerial(b *Block, funcs []Func) map[string]*Matrix {
	out := make(map[string]*Matrix, len(funcs))
	for _, f := range funcs {
		out[f.ID] = ComputeMatrixSerial(b, f)
	}
	return out
}
