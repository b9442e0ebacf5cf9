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
// record be the only durable form of a resolve: over both schemes a resolve
// accepts, random append-only ingest sequences, scored and unscored runs
// mixed under one configuration key (score is not part of it) and blocks
// below the training size, the run's own pipeline.Snapshot, the serving
// index built from the run (what the server keeps per configuration) and
// the index decoded from the serving log — a base plus one appended record
// per later commit, as persist.ServingDir writes it — drive identical next
// runs: every block reused and the reply blocks equal field for field. The
// built index shares the run's resolutions and scores rather than copying
// them. It also pins the assumption the decoder's label reconstruction
// rests on: the key index lists a block's members ascending by (Col, Doc).
func TestRecoveredSnapshotEqualsInMemory(t *testing.T) {
	// Names share tokens so the token scheme merges collections into one
	// block; the one-document collections are trivial blocks under the
	// exact scheme.
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
	} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/%d", knobs.Blocking, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				mem := store.NewMemStore()
				srv := New(Config{Store: mem})
				defer srv.Close(context.Background())
				cfg, bc, key, err := srv.parseKnobs(knobs)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Blocker, err = bc.FreshBlocker(); err != nil {
					t.Fatal(err)
				}

				var (
					snap *pipeline.Snapshot // the run's own carry-over
					hot  *serving.Index     // what the process holds and published last
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
					inc, err := pl.RunIncremental(context.Background(), cols, hot)
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
					for i, fp := range inc.Fingerprints {
						res, score, ok := hot.Committed(fp)
						if !ok || res != inc.Results[i].Resolution || score != inc.Results[i].Score {
							t.Fatalf("step %d: block %q is committed as a copy of the run's resolution and score", step, inc.Results[i].Block.Name)
						}
					}

					decoded, err := serving.Decode(bytes.NewReader(log.Bytes()))
					if err != nil {
						t.Fatal(err)
					}

					// The next run — scored or not, whatever this one was —
					// must not be able to tell the three apart.
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
						wantBlocks, wantAvg := blockResults(want.Results, rescored)
						for _, from := range []struct {
							name string
							prev pipeline.CommittedRun
						}{{"snapshot", snap}, {"built index", hot}, {"decoded index", decoded}} {
							got, err := pl.RunIncremental(context.Background(), cols, from.prev)
							if err != nil {
								t.Fatal(err)
							}
							if got.Stats.Reused != got.Stats.Blocks {
								t.Fatalf("step %d (scored %v, then %v): the %s reused %d of %d blocks",
									step, scored, rescored, from.name, got.Stats.Reused, got.Stats.Blocks)
							}
							gotBlocks, gotAvg := blockResults(got.Results, rescored)
							if !reflect.DeepEqual(gotBlocks, wantBlocks) || !reflect.DeepEqual(gotAvg, wantAvg) {
								t.Fatalf("step %d (scored %v, then %v): reply from the %s differs from the snapshot's:\n got %+v\nwant %+v",
									step, scored, rescored, from.name, gotBlocks, wantBlocks)
							}
						}
					}
				}
				if hot.Clusters() == 0 {
					t.Fatal("the sequence committed no blocks")
				}
			})
		}
	}
}
