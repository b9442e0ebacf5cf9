package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
)

func indexCols() []*corpus.Collection {
	return []*corpus.Collection{
		{Name: "john smith", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://a/0", Text: "one", PersonaID: 0},
			{ID: 1, URL: "http://a/1", Text: "two", PersonaID: 0},
		}},
		{Name: "j smith", NumPersonas: 1, Docs: []corpus.Document{
			{ID: 0, URL: "http://b/0", Text: "three", PersonaID: 0},
		}},
	}
}

// membership reads idx's blocks the way production does: UpdateMembership
// over cols, the corpus idx already holds, so the update indexes nothing.
func membership(t *testing.T, idx *blockindex.Index, cols []*corpus.Collection) ([][]blockindex.DocRef, []uint64) {
	t.Helper()
	stats, refs, fps, err := idx.UpdateMembership(cols)
	if err != nil || stats.DeltaDocs != 0 {
		t.Fatalf("reading membership indexed %d documents (err %v)", stats.DeltaDocs, err)
	}
	return refs, fps
}

func TestIndexDirRoundTrip(t *testing.T) {
	dir := bareDir(t, newIndexDir, t.TempDir())
	cfg := blockindex.Config{Scheme: blocking.TokenBlocking{}}

	// No index saved yet: (nil, nil).
	idx, err := dir.LoadIndex("token|collection|4", cfg)
	if err != nil || idx != nil {
		t.Fatalf("LoadIndex on empty dir = (%v, %v), want (nil, nil)", idx, err)
	}

	built, err := blockindex.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.Update(indexCols()); err != nil {
		t.Fatal(err)
	}
	version, err := dir.SaveIndex("token|collection|4", built)
	if err != nil {
		t.Fatal(err)
	}
	if version != built.Version() {
		t.Fatalf("SaveIndex reported version %d, index is at %d", version, built.Version())
	}

	loaded, err := dir.LoadIndex("token|collection|4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRefs, wantFps := membership(t, built, indexCols())
	gotRefs, gotFps := membership(t, loaded, indexCols())
	if !reflect.DeepEqual(gotRefs, wantRefs) || !reflect.DeepEqual(gotFps, wantFps) {
		t.Fatal("loaded index reports different membership than the saved one")
	}

	// A different key must not alias the stored file.
	if _, err := dir.LoadIndex("exact|collection|4", cfg); err != nil {
		t.Fatalf("foreign key load: %v (want (nil, nil))", err)
	}
}

func TestIndexDirRejectsDamage(t *testing.T) {
	tmp := t.TempDir()
	dir := bareDir(t, newIndexDir, tmp)
	cfg := blockindex.Config{Scheme: blocking.ExactKey{}}
	built, err := blockindex.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.Update(indexCols()); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.SaveIndex("k", built); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(tmp, "*.idx"))
	if err != nil || len(files) != 1 {
		t.Fatalf("index files: %v, %v", files, err)
	}

	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x10
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.LoadIndex("k", cfg); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("damaged index load error = %v, want corruption", err)
	}

	// Another file format version is refused as such, and quarantined too.
	if _, err := dir.SaveIndex("k", built); err != nil {
		t.Fatal(err)
	}
	skewVersion(t, files[0])
	if _, err := dir.LoadIndex("k", cfg); !errors.Is(err, ErrArtifactVersion) || dir.Quarantined() != 2 {
		t.Fatalf("version-skew load error = %v, %d quarantined; want ErrArtifactVersion, 2", err, dir.Quarantined())
	}
}
