package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/store"
)

// TestRecoveredSnapshotEqualsInMemory is what lets the appended serving
// record be the only durable form of a resolve: over every blocker, random
// append-only ingest sequences, scored and unscored runs mixed under one
// configuration key (score is not part of it) and blocks below the
// training size, the snapshot rebuilt from the decoded serving log — a
// base plus one appended record per later commit, as persist.ServingDir
// writes it — drives the next run exactly as the in-memory snapshot does:
// every block reused and the reply blocks equal field for field. It also
// pins the assumption the label reconstruction rests on: every blocker
// lists a block's members ascending by (Col, Doc).
func TestRecoveredSnapshotEqualsInMemory(t *testing.T) {
	// Names share tokens so the token, sorted-neighborhood and canopy
	// schemes merge collections into one block; the one-document
	// collections are trivial blocks under the exact scheme.
	sizes := map[string]int{"ana rivera": 12, "ana cohen": 9, "ben cohen": 7, "li wei": 1, "omar haddad": 1, "ben rivera": 4}
	var pool []*corpus.Collection
	for i, name := range []string{"ana rivera", "ana cohen", "ben cohen", "li wei", "omar haddad", "ben rivera"} {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: name, NumDocs: sizes[name], NumPersonas: min(3, sizes[name]),
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(50 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, col)
	}

	for _, knobs := range []resolveKnobs{
		{Blocking: "exact"},
		{Blocking: "token"},
		{Blocking: "sortedneighborhood"},
		{Blocking: "canopy"},
		{Blocking: "canopy", BlockingMode: "ann"},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s%s/%d", knobs.Blocking, knobs.BlockingMode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				mem := store.NewMemStore()
				srv := New(Config{Store: mem})
				defer srv.Close(context.Background())
				cfg, bc, err := srv.parseKnobs(knobs)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Blocker, err = bc.FreshBlocker(); err != nil {
					t.Fatal(err)
				}
				key := knobsKey(knobs, bc)

				var (
					snap *pipeline.Snapshot // what the process holds in memory
					hot  *serving.Index     // what it published last
					held *serving.Manifest  // what the log below decodes to
					log  bytes.Buffer       // the key's serving file, less its magic and key record
				)
				next := make([]int, len(pool))
				left := 0
				for _, col := range pool {
					left += len(col.Docs)
				}
				for step := 1; left > 0; step++ {
					// Ingest the next few documents of a few collections.
					var batch []*corpus.Collection
					for ci, col := range pool {
						if next[ci] == len(col.Docs) || rng.Intn(3) == 0 {
							continue
						}
						n := min(1+rng.Intn(4), len(col.Docs)-next[ci])
						batch = append(batch, &corpus.Collection{Name: col.Name,
							Docs: col.Docs[next[ci] : next[ci]+n], NumPersonas: col.NumPersonas})
						next[ci] += n
						left -= n
					}
					if len(batch) == 0 {
						continue
					}
					if _, err := mem.Append(batch); err != nil {
						t.Fatal(err)
					}
					cols, version := mem.Snapshot()

					scored := rng.Intn(2) == 0
					cfg.Score = scored
					pl, err := pipeline.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					inc, err := pl.RunIncremental(context.Background(), cols, snap)
					if err != nil {
						t.Fatal(err)
					}
					for i, members := range inc.Members {
						for j := 1; j < len(members); j++ {
							a, b := members[j-1], members[j]
							if a.Col > b.Col || a.Col == b.Col && a.Doc >= b.Doc {
								t.Fatalf("step %d: block %q lists members %v, not ascending by (Col, Doc)", step, inc.Results[i].Block.Name, members)
							}
						}
					}

					// Commit as publishServing and ServingDir do: a base the
					// first time, an appended record after that.
					x := serving.Build(hot, uint64(step), version, key, cols, committedBlocks(inc))
					if held == nil {
						if err := x.EncodeTo(&log); err != nil {
							t.Fatal(err)
						}
					} else {
						rec, ok := x.EncodeCommit(held)
						if !ok {
							t.Fatalf("step %d: the commit does not extend the log", step)
						}
						log.Write(rec)
					}
					snap, hot, held = inc.Snapshot, x, x.Manifest()

					decoded, err := serving.Decode(bytes.NewReader(log.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					recovered := snapshotOf(decoded)
					if recovered.Blocks() != snap.Blocks() {
						t.Fatalf("step %d: recovered %d blocks, the run left %d", step, recovered.Blocks(), snap.Blocks())
					}

					// The next run — scored or not, whatever this one was —
					// must not be able to tell the two snapshots apart.
					for _, rescored := range []bool{true, false} {
						cfg.Score = rescored
						pl, err = pipeline.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						want, err := pl.RunIncremental(context.Background(), cols, snap)
						if err != nil {
							t.Fatal(err)
						}
						got, err := pl.RunIncremental(context.Background(), cols, recovered)
						if err != nil {
							t.Fatal(err)
						}
						if got.Stats.Reused != got.Stats.Blocks || want.Stats.Reused != want.Stats.Blocks {
							t.Fatalf("step %d (scored %v, then %v): recovered snapshot reused %d of %d blocks, in-memory %d of %d",
								step, scored, rescored, got.Stats.Reused, got.Stats.Blocks, want.Stats.Reused, want.Stats.Blocks)
						}
						wantBlocks, wantAvg := blockResults(want.Results, rescored)
						gotBlocks, gotAvg := blockResults(got.Results, rescored)
						if !reflect.DeepEqual(gotBlocks, wantBlocks) || !reflect.DeepEqual(gotAvg, wantAvg) {
							t.Fatalf("step %d (scored %v, then %v): reply from the recovered snapshot differs:\n got %+v\nwant %+v",
								step, scored, rescored, gotBlocks, wantBlocks)
						}
					}
				}
				if len(hot.Resolutions()) == 0 {
					t.Fatal("the sequence committed no blocks")
				}
			})
		}
	}
}
