package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// goldenRunDigest is the SHA-256 of every block's labels, Resolution.Source
// and score bits from one default-options Run on
// corpus.WWW05Profile().Generate(1), computed on the commit before the
// single-pass extractor (PR 15). It makes "a perf change cannot silently
// move Fp" bit-exact: leave it unedited through any pure optimisation of
// prepare, analyze or cluster.
const goldenRunDigest = "a4910f9806054fad268b3b4ed6b3e8a0d359c9e0d43897ecb76adb5bce5e1af5"

func TestGoldenRunDigest(t *testing.T) {
	d, err := corpus.WWW05Profile().Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(Config{Options: core.DefaultOptions(), Score: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := pl.Run(context.Background(), d.Collections)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range results {
		put(uint64(len(r.Resolution.Labels)))
		for _, l := range r.Resolution.Labels {
			put(uint64(l))
		}
		put(uint64(len(r.Resolution.Source)))
		h.Write([]byte(r.Resolution.Source))
		put(math.Float64bits(r.Score.Fp))
		put(math.Float64bits(r.Score.F))
		put(math.Float64bits(r.Score.Rand))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRunDigest {
		t.Fatalf("run digest = %s, want %s: resolution output changed", got, goldenRunDigest)
	}
}
