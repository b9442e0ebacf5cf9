package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// TestErgenErsolveRoundTrip exercises the full CLI data path in-process:
// generate a tiny dataset the way ergen does, serialize it to JSON, load
// it back the way ersolve does, resolve it through the streaming pipeline
// API, and check the scored output end to end.
func TestErgenErsolveRoundTrip(t *testing.T) {
	// ergen -name patel -docs 24 -personas 3
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "patel", NumDocs: 24, NumPersonas: 3,
		Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Template: 0.2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &corpus.Dataset{Label: "roundtrip", Collections: []*corpus.Collection{col}}

	var buf bytes.Buffer
	if err := gen.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dataset, err := corpus.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// ersolve -in … -score, expressed through the pipeline API.
	const seed = 5
	opts := core.DefaultOptions()
	opts.Seed = seed
	pl, err := pipeline.New(pipeline.Config{Options: opts, Score: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := pl.Run(context.Background(), dataset.Collections)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d blocks, want 1", len(results))
	}
	res := results[0]
	if res.Block.Name != "patel" || len(res.Resolution.Labels) != 24 {
		t.Fatalf("block %q with %d labels", res.Block.Name, len(res.Resolution.Labels))
	}
	n := res.Resolution.NumEntities()
	if n < 1 || n > 24 {
		t.Fatalf("entities = %d", n)
	}
	if res.Score == nil {
		t.Fatal("scored run returned no score")
	}
	if res.Score.Fp < 0.5 || res.Score.Fp > 1 || res.Score.F < 0 || res.Score.F > 1 ||
		res.Score.Rand < 0 || res.Score.Rand > 1 {
		t.Errorf("implausible scores on an easy collection: %+v", *res.Score)
	}

	// The JSON round trip must not change the resolution: resolve the
	// pre-serialization collection through the direct resolver path with
	// the pipeline's per-block seed and compare labels.
	r, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := r.PrepareCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prep.Run(stats.SplitSeedN(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.BestAnyCriterion()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels {
		if res.Resolution.Labels[i] != want.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d after JSON round trip",
				i, res.Resolution.Labels[i], want.Labels[i])
		}
	}
}
