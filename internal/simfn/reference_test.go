package simfn

import (
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/index"
	"repro/internal/textsim"
)

// Pack interns the document's term vectors and entity sets through the
// block vocabulary, from their map and string forms: what PrepareBlockCtx
// did for every document before it packed from term IDs, and how the tests
// pack a hand-built Doc. Documents of one block must be packed against the
// same Vocab, in a fixed order.
func (d *Doc) Pack(vocab *textsim.Vocab) {
	d.Packed = d.TermVector.Pack(vocab)
	d.ConceptPacked = d.Features.ConceptVector.Pack(vocab)
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
		b.Docs[i].TermVector = v
		b.Docs[i].Pack(b.Vocab)
	}
	return b
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
