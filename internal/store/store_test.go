package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
)

func col(name string, personas ...int) *corpus.Collection {
	c := &corpus.Collection{Name: name}
	for i, p := range personas {
		c.Docs = append(c.Docs, corpus.Document{
			ID:        999, // store must ignore incoming IDs
			URL:       fmt.Sprintf("http://example.com/%s/%d", name, i),
			Text:      fmt.Sprintf("%s doc %d", name, i),
			PersonaID: p,
		})
	}
	c.NumPersonas = 100 // store recomputes
	return c
}

func TestMemStoreAppendAndSnapshot(t *testing.T) {
	m := NewMemStore()
	added, err := m.Append([]*corpus.Collection{col("smith", 5, 5, 9), col("cohen", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if added != 4 {
		t.Fatalf("added = %d, want 4", added)
	}

	// Second batch grows smith: persona 9 was seen, persona 2 is new.
	if _, err := m.Append([]*corpus.Collection{col("smith", 9, 2)}); err != nil {
		t.Fatal(err)
	}

	cols, version := m.Snapshot()
	if version != 2 {
		t.Errorf("version = %d, want 2", version)
	}
	if len(cols) != 2 || cols[0].Name != "smith" || cols[1].Name != "cohen" {
		t.Fatalf("snapshot order = %v", cols)
	}
	smith := cols[0]
	if len(smith.Docs) != 5 || smith.NumPersonas != 3 {
		t.Fatalf("smith = %d docs, %d personas, want 5 and 3", len(smith.Docs), smith.NumPersonas)
	}
	// Dense IDs in append order, personas remapped first-seen: 5→0, 9→1, 2→2.
	wantPersonas := []int{0, 0, 1, 1, 2}
	for i, d := range smith.Docs {
		if d.ID != i {
			t.Errorf("doc %d has ID %d", i, d.ID)
		}
		if d.PersonaID != wantPersonas[i] {
			t.Errorf("doc %d persona = %d, want %d", i, d.PersonaID, wantPersonas[i])
		}
	}
	if err := smith.Validate(); err != nil {
		t.Errorf("snapshot collection does not validate: %v", err)
	}

	st := m.Stats()
	if st.Collections != 2 || st.Docs != 6 || st.Version != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMemStoreSnapshotIsolated(t *testing.T) {
	m := NewMemStore()
	if _, err := m.Append([]*corpus.Collection{col("smith", 0, 0)}); err != nil {
		t.Fatal(err)
	}
	cols, _ := m.Snapshot()
	cols[0].Docs[0].Text = "mutated"
	cols2, _ := m.Snapshot()
	if cols2[0].Docs[0].Text == "mutated" {
		t.Fatal("snapshot shares memory with the store")
	}
}

func TestMemStoreAppendAtomic(t *testing.T) {
	m := NewMemStore()
	bad := col("smith", 0)
	bad.Docs[0].PersonaID = -1
	if _, err := m.Append([]*corpus.Collection{col("cohen", 0), bad}); err == nil {
		t.Fatal("Append accepted a negative persona")
	}
	if st := m.Stats(); st.Docs != 0 || st.Collections != 0 || st.Version != 0 {
		t.Fatalf("failed Append committed state: %+v", st)
	}
	if _, err := m.Append([]*corpus.Collection{{Name: ""}}); err == nil {
		t.Fatal("Append accepted an empty collection name")
	}
}

func TestMemStoreConcurrentAppend(t *testing.T) {
	m := NewMemStore()
	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := m.Append([]*corpus.Collection{col(fmt.Sprintf("name%d", w%4), i%3)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.Docs != workers*perWorker {
		t.Errorf("docs = %d, want %d (no lost documents)", st.Docs, workers*perWorker)
	}
	cols, _ := m.Snapshot()
	if len(cols) != 4 {
		t.Errorf("collections = %d, want 4", len(cols))
	}
	for _, c := range cols {
		if err := c.Validate(); err != nil {
			t.Errorf("collection %q: %v", c.Name, err)
		}
	}
}
