package persist

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/serving"
)

// The state keys of the default configuration and of the same
// configuration over canopy in the retired "ann" blocking mode, which an
// earlier release filed serving indexes under.
const (
	exactServingKey = "best|closure|exact|collection|0.1|10|1"
	annServingKey   = "best|closure|canopy|collection|0.1|10|1|ann|12|64"
)

// TestDataDirWithAnnModeServingFileStarts pins the upgrade path of a data
// directory an earlier release wrote while it still accepted
// "blocking_mode":"ann": beside the default configuration's serving file it
// holds a newer one filed under an ann-mode key, which no request can name
// any more. The server starts on it with nothing logged, quarantined or
// degraded; before any resolve, lookups answer from the newest commit
// across keys, the orphan's; the default resolve then reuses its own file,
// preparing nothing, and becomes the hot index; the orphan file is left
// byte for byte.
func TestDataDirWithAnnModeServingFileStarts(t *testing.T) {
	dir := t.TempDir()
	cols := fixtureCorpus(t)
	const ref = "/v1/docs/ana%20rivera:0/entity"

	// The earlier release's life: an ingest and a default resolve, which
	// commits the exact-key file.
	data, err := OpenWithOptions(dir, Options{Log: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := data.Store.Append(cols); err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Store: data.Store, Serving: data.Serving, ErrorLog: quietLog})
	ts := httptest.NewServer(srv.Handler())
	exact := resolve(t, ts, `{}`)
	var exactEntity service.EntityResponse
	getJSON(t, ts, ref, &exactEntity)
	ts.Close()
	srv.Close(context.Background())

	// Then an ann-mode canopy resolve, committed as that release did: the
	// run's blocks over a fresh candidate graph, saved through SaveServing
	// under the ann-mode key with the next epoch.
	snapshot, version := data.Store.Snapshot()
	scheme, err := blocking.ParseScheme("canopy")
	if err != nil {
		t.Fatal(err)
	}
	graph, err := ann.New(ann.Config{Scheme: scheme.(blocking.ApproxScheme)})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pipeline.New(pipeline.Config{Options: core.DefaultOptions(), Blocker: pipeline.NewANNBlockerWith(graph), Score: true})
	if err != nil {
		t.Fatal(err)
	}
	run, err := pl.RunIncremental(context.Background(), snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]serving.BlockResolution, len(run.Results))
	for i, res := range run.Results {
		blocks[i] = serving.BlockResolution{Fingerprint: run.Fingerprints[i], Name: res.Block.Name,
			Members: run.Members[i], Resolution: res.Resolution, Score: res.Score}
	}
	orphan := serving.Build(nil, exactEntity.Epoch+1, version, annServingKey, snapshot, blocks)
	if err := data.Serving.SaveServing(annServingKey, orphan); err != nil {
		t.Fatal(err)
	}
	exactPath, orphanPath := data.Serving.path(exactServingKey), data.Serving.path(annServingKey)
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}
	// The orphan is the newer file whatever the clock's resolution.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(exactPath, past, past); err != nil {
		t.Fatal(err)
	}
	orphanBytes, err := os.ReadFile(orphanPath)
	if err != nil {
		t.Fatal(err)
	}

	// The upgrade: this tree starts on the directory.
	data, err = OpenWithOptions(dir, Options{Log: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { data.Close() }) // after serveLogged's cleanup stops the server
	ts, logged := serveLogged(t, data)
	for kind, n := range degraded(t, ts) {
		if n != 0 {
			t.Errorf("the orphan file degraded the start: %s = %g", kind, n)
		}
	}

	var before service.EntityResponse
	getJSON(t, ts, ref, &before)
	want := orphan.DocEntity("ana rivera", 0)
	if before.Epoch != orphan.Epoch() || !reflect.DeepEqual(before.Entity, want) {
		t.Errorf("lookup before any resolve = epoch %d %+v, want the newest commit's: epoch %d %+v",
			before.Epoch, before.Entity, orphan.Epoch(), want)
	}

	got := resolve(t, ts, `{}`)
	if got.Incremental.PreparedBlocks != 0 || got.Incremental.ReusedBlocks != got.Incremental.Blocks {
		t.Errorf("the default resolve after the upgrade = %+v, want every block reused from its own file", got.Incremental)
	}
	if !reflect.DeepEqual(got.Blocks, exact.Blocks) {
		t.Errorf("the default resolve after the upgrade replied\n%+v\nbefore it\n%+v", got.Blocks, exact.Blocks)
	}
	var after service.EntityResponse
	getJSON(t, ts, ref, &after)
	if after.Epoch <= orphan.Epoch() || !reflect.DeepEqual(after.Entity, exactEntity.Entity) {
		t.Errorf("lookup after the default resolve = epoch %d %+v, want a later epoch serving %+v",
			after.Epoch, after.Entity, exactEntity.Entity)
	}

	if errs := logged(); len(errs) != 0 {
		t.Errorf("the service logged %v, want nothing", errs)
	}
	d := degraded(t, ts)
	if len(d) == 0 {
		t.Error("/v1/stats carries no degradation counters")
	}
	for kind, n := range d {
		if n != 0 {
			t.Errorf("the upgrade degraded the server: %s = %g", kind, n)
		}
	}
	if corrupt, _ := filepath.Glob(filepath.Join(dir, "serving", "*.corrupt")); len(corrupt) != 0 {
		t.Errorf("quarantined %v, want nothing", corrupt)
	}
	if now, err := os.ReadFile(orphanPath); err != nil || !bytes.Equal(now, orphanBytes) {
		t.Errorf("the orphan serving file was touched (%v)", err)
	}
}
