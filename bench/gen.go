package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/stats"
)

const (
	// deltaDocs is the size of one steady-phase append.
	deltaDocs = 2
	// deltaRounds is how many distinct appends each collection has; the
	// writer wraps around once they are used up (re-sent pages are
	// appended like any others).
	deltaRounds = 6
	// readRate is the reader's open-loop request rate per second.
	readRate = 200
	// oneshotMaxDocs caps the one-shot POST /v1/resolve dataset: the first
	// collections of the corpus up to this many documents.
	oneshotMaxDocs = 1200
)

type readKind int

const (
	readDoc readKind = iota
	readEntity
	readSearch
)

// readOp is one pre-drawn reader request. Col/Pos name an initial-corpus
// document; for readEntity the ID is whatever the reader last learned for
// a collection that receives no deltas (so it cannot go stale).
type readOp struct {
	Kind readKind
	Col  int
	Pos  int
}

// inputs is everything one run sends, generated from the seed alone. The
// server only ever sees the marshalled bodies.
type inputs struct {
	w       workload
	initial []*corpus.Collection
	// full holds each collection with its delta pages still attached, for
	// the probe's replay.
	full       []*corpus.Collection
	bulkBodies [][]byte
	// deltaCols are the collections the writer appends to, round-robin:
	// the first half, so the second half's entity IDs stay valid for
	// GET /v1/entities/{id}.
	deltaCols   []int
	deltaBodies [][][]byte // [deltaCols index][round]
	oneshotBody []byte
	oneshotDocs int
	reads       []readOp
	docs        int
}

// surname builds a distinct, token-unique collection name from an index,
// so a search for it matches exactly one block.
func surname(i int) string {
	const cons, vow = "bdfghklmnprstvz", "aeiou"
	b := make([]byte, 0, 8)
	for k := 0; k < 4; k++ {
		b = append(b, cons[i%len(cons)], vow[(i/len(cons))%len(vow)])
		i /= len(cons) * len(vow)
	}
	return string(b)
}

func collectionConfigs(w workload, seed int64) []corpus.CollectionConfig {
	extra := deltaDocs * deltaRounds
	cfgs := make([]corpus.CollectionConfig, 0, w.Collections)
	if w.Paper {
		p := corpus.WWW05Profile()
		for i, name := range p.Names[:w.Collections] {
			cfgs = append(cfgs, corpus.CollectionConfig{
				Name: name, NumDocs: w.DocsPer + extra, NumPersonas: p.ClusterCounts[i],
				Noise: p.Noise, MissingInfo: p.MissingInfo, Spurious: p.Spurious,
				Template: p.Template, ChannelScale: p.ChannelScale,
				Seed: stats.SplitSeed(seed, p.Label+"/"+name),
			})
		}
		return cfgs
	}
	// The knobs of cmd/benchjson's corpus, so the numbers have a successor.
	offset := int(uint64(stats.SplitSeed(seed, "names")) % 1000)
	for i := 0; i < w.Collections; i++ {
		name := surname(offset + i)
		cfgs = append(cfgs, corpus.CollectionConfig{
			Name: name, NumDocs: w.DocsPer + extra, NumPersonas: 4,
			Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2,
			Seed: stats.SplitSeed(seed, "delta/"+name),
		})
	}
	return cfgs
}

// prefix returns the collection's first n pages as a collection valid on
// its own: persona labels renumbered densely in first-seen order (what the
// store does on ingest), so the one-shot endpoint's validation accepts it.
func prefix(col *corpus.Collection, n int) *corpus.Collection {
	out := &corpus.Collection{Name: col.Name, Docs: append([]corpus.Document(nil), col.Docs[:n]...)}
	dense := map[int]int{}
	for i := range out.Docs {
		label, seen := dense[out.Docs[i].PersonaID]
		if !seen {
			label = len(dense)
			dense[out.Docs[i].PersonaID] = label
		}
		out.Docs[i].PersonaID = label
	}
	out.NumPersonas = len(dense)
	return out
}

func generate(w workload, seed int64, seconds float64) (*inputs, error) {
	in := &inputs{w: w}
	for _, cfg := range collectionConfigs(w, seed) {
		col, err := corpus.GenerateCollection(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating %q: %w", cfg.Name, err)
		}
		in.full = append(in.full, col)
		in.initial = append(in.initial, prefix(col, w.DocsPer))
		in.docs += w.DocsPer
	}

	type colsBody struct {
		Collections []*corpus.Collection `json:"collections"`
	}
	marshal := func(cols ...*corpus.Collection) ([]byte, error) {
		return json.Marshal(colsBody{cols})
	}
	for _, col := range in.initial {
		body, err := marshal(col)
		if err != nil {
			return nil, err
		}
		in.bulkBodies = append(in.bulkBodies, body)
	}
	for ci := 0; ci < (len(in.full)+1)/2; ci++ {
		in.deltaCols = append(in.deltaCols, ci)
		col := in.full[ci]
		var rounds [][]byte
		for r := 0; r < deltaRounds; r++ {
			at := w.DocsPer + r*deltaDocs
			body, err := marshal(&corpus.Collection{
				Name: col.Name, Docs: col.Docs[at : at+deltaDocs], NumPersonas: col.NumPersonas,
			})
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, body)
		}
		in.deltaBodies = append(in.deltaBodies, rounds)
	}

	var oneshot []*corpus.Collection
	for _, col := range in.initial {
		if in.oneshotDocs+len(col.Docs) > oneshotMaxDocs {
			break
		}
		oneshot = append(oneshot, col)
		in.oneshotDocs += len(col.Docs)
	}
	body, err := marshal(oneshot...)
	if err != nil {
		return nil, err
	}
	in.oneshotBody = body

	rng := rand.New(rand.NewSource(stats.SplitSeed(seed, "reads")))
	in.reads = make([]readOp, int(seconds*readRate)+1)
	for i := range in.reads {
		op := readOp{Col: rng.Intn(len(in.initial)), Pos: rng.Intn(w.DocsPer)}
		switch p := rng.Intn(10); {
		case p == 8:
			op.Kind = readEntity
		case p == 9:
			op.Kind = readSearch
		}
		in.reads[i] = op
	}
	return in, nil
}
