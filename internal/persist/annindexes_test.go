package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/blockindex"
	"repro/internal/blocking"
)

func annCfg() ann.Config {
	return ann.Config{Scheme: blocking.Canopy{Loose: 0.4, Tight: 0.8}}
}

func TestANNDirRoundTrip(t *testing.T) {
	dir := bareDir(t, newANNDir, t.TempDir())

	// No index saved yet: (nil, nil).
	idx, err := dir.LoadANNIndex("ann|canopy|collection|12|100|64", annCfg())
	if err != nil || idx != nil {
		t.Fatalf("LoadANNIndex on empty dir = (%v, %v), want (nil, nil)", idx, err)
	}

	built, err := ann.New(annCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.Update(indexCols()); err != nil {
		t.Fatal(err)
	}
	version, err := dir.SaveANNIndex("ann|canopy|collection|12|100|64", built)
	if err != nil {
		t.Fatal(err)
	}
	if version != built.Version() {
		t.Fatalf("SaveANNIndex reported version %d, index is at %d", version, built.Version())
	}

	loaded, err := dir.LoadANNIndex("ann|canopy|collection|12|100|64", annCfg())
	if err != nil {
		t.Fatal(err)
	}
	wantRefs, wantFps := built.Membership()
	gotRefs, gotFps := loaded.Membership()
	if !reflect.DeepEqual(gotRefs, wantRefs) || !reflect.DeepEqual(gotFps, wantFps) {
		t.Fatal("loaded ann index reports different membership than the saved one")
	}

	// A different key must not alias the stored file.
	if _, err := dir.LoadANNIndex("ann|snb|collection|12|100|64", annCfg()); err != nil {
		t.Fatalf("foreign key load: %v (want (nil, nil))", err)
	}
}

func TestANNDirRejectsDamage(t *testing.T) {
	tmp := t.TempDir()
	dir := bareDir(t, newANNDir, tmp)
	built, err := ann.New(annCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.Update(indexCols()); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.SaveANNIndex("k", built); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(tmp, "*.ann"))
	if err != nil || len(files) != 1 {
		t.Fatalf("ann index files: %v, %v", files, err)
	}

	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x10
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.LoadANNIndex("k", annCfg()); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("damaged ann index load error = %v, want corruption", err)
	}
	if dir.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", dir.Quarantined())
	}
	if _, err := dir.LoadANNIndex("k", annCfg()); err != nil {
		t.Fatalf("load after quarantine = %v, want (nil, nil)", err)
	}

	// Another file format version is refused as such, and quarantined too.
	if _, err := dir.SaveANNIndex("k", built); err != nil {
		t.Fatal(err)
	}
	skewVersion(t, files[0])
	if _, err := dir.LoadANNIndex("k", annCfg()); !errors.Is(err, ErrArtifactVersion) || dir.Quarantined() != 2 {
		t.Fatalf("version-skew load error = %v, %d quarantined; want ErrArtifactVersion, 2", err, dir.Quarantined())
	}

	// The sharded .idx files and the .ann files share DIR/indexes without
	// aliasing: an IndexDir over the same tree sees no index for the key.
	idxDir := bareDir(t, newIndexDir, tmp)
	if idx, err := idxDir.LoadIndex("k", blockindex.Config{Scheme: blocking.ExactKey{}, Shards: 2}); err != nil || idx != nil {
		t.Fatalf("IndexDir over shared tree = (%v, %v), want (nil, nil)", idx, err)
	}
}
