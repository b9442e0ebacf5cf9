package simfn

import (
	"repro/internal/extract"
	"repro/internal/textsim"
)

// Workspace is the memory one block worker reuses across the blocks it
// prepares, one after another: the extraction tables and lexicon, the
// vocabulary, the documents and packed vectors, PrepareBlock's per-term
// arrays, every matrix's cells and the kernel's postings, key memos and
// token table. Each block sizes a buffer to what it needs, reallocating
// only when it has outgrown it, so a worker allocates for its largest block
// and not once per block.
//
// What a workspace hands out is valid until it is asked for the same kind
// of thing again: a Block until the next PrepareBlock, matrices until the
// next ComputeAll. Nothing of a value is reused, only memory: a block
// prepared in a workspace equals one prepared by PrepareBlockCtx bit for
// bit. A Workspace belongs to one goroutine at a time and lives as long as
// its owner keeps it — one run of the pipeline, never a process — so the
// buffers it holds never outlive the run they serve. The zero value is
// ready to use.
type Workspace struct {
	// fe is the extractor pages reads through.
	fe    *extract.FeatureExtractor
	pages *extract.Pages
	vocab *textsim.Vocab
	docs  []Doc
	prep  prepScratch
	// cells backs every matrix of the last ComputeAll, one function's
	// condensed triangle after another.
	cells    []float64
	matrices []Matrix
	kernel   kernel
}
