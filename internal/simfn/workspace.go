package simfn

import (
	"repro/internal/extract"
	"repro/internal/textsim"
)

// Workspace is the memory one block worker reuses across the blocks it
// prepares, one after another: the lexicon and the extraction tables (kept with
// their values; see the package documentation), the vocabulary, the documents
// and packed vectors, PrepareBlock's per-term arrays, the cells of the last
// ComputeAll's matrices, the kernel's postings, key memos and token table, and
// its workers' join accumulators. Each block sizes a buffer to what it needs,
// reallocating only when it has outgrown it, so a worker allocates for its
// largest block and not once per block.
//
// What a workspace hands out is valid until it is asked for the same kind
// of thing again: a Block until the next PrepareBlock, matrices until the
// next ComputeAll. Of the values, only the lexicon's are reused — what a
// token is does not depend on the block — and otherwise only memory: a
// block prepared in a workspace equals one prepared by PrepareBlockCtx bit
// for bit. A Workspace belongs to one goroutine at a time and lives as long as
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
	// condensed triangle after another; matrices, ms and byID hand them
	// out. acc and cnt back the fan-out workers' join accumulators.
	cells    []float64
	matrices []Matrix
	ms       []*Matrix
	byID     map[string]*Matrix
	acc      []float64
	cnt      []int32
	kernel   kernel
}
