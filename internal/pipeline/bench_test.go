package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/ann"
	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
)

// BenchmarkPipelineResolve runs the full streaming pipeline (block →
// prepare → analyze → combine → cluster → score) end to end over a small
// multi-collection dataset and reports document throughput.
func BenchmarkPipelineResolve(b *testing.B) {
	var cols []*corpus.Collection
	totalDocs := 0
	for i := 0; i < 4; i++ {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: fmt.Sprintf("name%d", i), NumDocs: 40, NumPersonas: 4,
			Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Seed: int64(100 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		cols = append(cols, col)
		totalDocs += len(col.Docs)
	}
	pl, err := New(Config{Score: true})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Run(ctx, cols); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(totalDocs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

// benchBlockCorpus builds the delta-ingest scenario the Block-stage
// benchmarks share: a corpus of 8 collections, a "base" prefix holding all
// but the last 5 documents of each, and the full union one small ingest
// batch later.
func benchBlockCorpus(b *testing.B) (base, full []*corpus.Collection, docs int) {
	b.Helper()
	for i := 0; i < 8; i++ {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: fmt.Sprintf("name%d", i), NumDocs: 60, NumPersonas: 5,
			Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Seed: int64(300 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		full = append(full, col)
		base = append(base, &corpus.Collection{
			Name: col.Name, Docs: col.Docs[:len(col.Docs)-5], NumPersonas: col.NumPersonas,
		})
		docs += len(col.Docs)
	}
	return base, full, docs
}

// BenchmarkSchemeBlock is the full-rebuild baseline: every iteration pays
// a complete candidate-generation and union-find pass over the corpus,
// which is what the Block stage cost per run before the sharded index.
func BenchmarkSchemeBlock(b *testing.B) {
	_, full, docs := benchBlockCorpus(b)
	sb := NewSchemeBlocker(blocking.TokenBlocking{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sb.BlockMembership(ctx, full); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkIndexBlock measures the same Block stage served by the sharded
// index in the delta-ingest case: the base corpus is already indexed (the
// untimed decode restores that state each iteration), so the timed work is
// keying the 40-document delta, merging it into the components, and
// assembling the blocks.
func BenchmarkIndexBlock(b *testing.B) {
	base, full, docs := benchBlockCorpus(b)
	cfg := blockindex.Config{Scheme: blocking.TokenBlocking{}}
	seed, err := blockindex.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Update(base); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := seed.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, err := blockindex.Decode(bytes.NewReader(encoded), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ib := NewIndexBlockerWith(idx)
		b.StartTimer()
		if _, err := ib.BlockFingerprints(ctx, full); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

// benchANNCorpus builds the 10k-document delta-ingest scenario of the
// ANN benchmarks: 100 name collections of 100 documents with token
// overlap across names, a "base" prefix holding all but the last 5
// documents of each, and the full union one ingest batch later.
func benchANNCorpus(b *testing.B) (base, full []*corpus.Collection, docs int) {
	b.Helper()
	full = recallCorpus(b, 100, 100)
	for _, col := range full {
		base = append(base, &corpus.Collection{
			Name: col.Name, Docs: col.Docs[:len(col.Docs)-5], NumPersonas: col.NumPersonas,
		})
		docs += len(col.Docs)
	}
	return base, full, docs
}

// BenchmarkCanopySchemeBlock is the exact baseline the ANN index
// replaces: every iteration pays the full canopy pass — every record
// against every seed — over the 10k-document corpus.
func BenchmarkCanopySchemeBlock(b *testing.B) {
	_, full, docs := benchANNCorpus(b)
	sb := NewSchemeBlocker(blocking.Canopy{Loose: 0.4, Tight: 0.8})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sb.BlockMembership(ctx, full); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkANNBlock measures the same Block stage served by the ANN
// candidate index in the delta-ingest case: the base corpus is already
// in the graph (the untimed decode restores that state each iteration),
// so the timed work is embedding the 500-document delta, inserting it
// into the proximity graph, and assembling the blocks.
func BenchmarkANNBlock(b *testing.B) {
	base, full, docs := benchANNCorpus(b)
	scheme := blocking.Canopy{Loose: 0.4, Tight: 0.8}
	cfg := ann.Config{Scheme: scheme}
	seed, err := ann.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Update(base); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := seed.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, err := ann.Decode(bytes.NewReader(encoded), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ab := NewANNBlockerWith(idx)
		b.StartTimer()
		if _, err := ab.BlockFingerprints(ctx, full); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}
