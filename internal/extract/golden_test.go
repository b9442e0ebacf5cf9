package extract

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/corpus"
)

// goldenFeaturesDigest is the SHA-256 of every page's DocumentFeatures on
// corpus.WWW05Profile().Generate(1), computed on the commit before the
// single-pass extractor (PR 15). A performance change to the analysis →
// extract path must leave it unedited: the features are bit-identical or
// the change is not a pure optimisation.
const goldenFeaturesDigest = "8aad1271c5b4e2bad561c287b82ff3bd7e4d24573fe563a87c1fa94fb2c41a06"

func writeString(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func writeStrings(h hash.Hash, ss []string) {
	writeString(h, "[")
	for _, s := range ss {
		writeString(h, s)
	}
	writeString(h, "]")
}

// writeFeatures feeds one DocumentFeatures to h in a canonical form: the
// concept vector in label order (the order it is held in), floats as their
// IEEE-754 bits, strings length-prefixed.
func writeFeatures(h hash.Hash, f DocumentFeatures) {
	for _, c := range f.ConceptVector {
		writeString(h, c.Name)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Weight))
		h.Write(b[:])
	}
	writeStrings(h, f.Concepts)
	writeStrings(h, f.Organizations)
	writeStrings(h, f.OtherPersons)
	writeString(h, f.MostFrequentName)
	writeString(h, f.ClosestName)
	writeString(h, f.URL.Raw)
	writeString(h, f.URL.Host)
	writeString(h, f.URL.Domain)
	writeStrings(h, f.URL.PathTokens)
	writeStrings(h, f.Locations)
}

func TestGoldenFeaturesDigest(t *testing.T) {
	d, err := corpus.WWW05Profile().Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFeatureExtractor(nil, nil)
	h := sha256.New()
	for _, col := range d.Collections {
		for _, doc := range col.Docs {
			writeFeatures(h, fe.Extract(doc.Text, doc.URL, col.Name))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFeaturesDigest {
		t.Fatalf("features digest = %s, want %s: extraction output changed", got, goldenFeaturesDigest)
	}
}
