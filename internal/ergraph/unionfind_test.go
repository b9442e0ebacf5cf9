package ergraph

import "testing"

func TestUnionFindAdd(t *testing.T) {
	uf := NewUnionFind(0)
	if uf.Sets() != 0 {
		t.Fatalf("empty union-find: sets %d", uf.Sets())
	}
	for i := 0; i < 5; i++ {
		if id := uf.Add(); id != i {
			t.Fatalf("Add #%d returned id %d", i, id)
		}
	}
	if uf.Sets() != 5 {
		t.Fatalf("after 5 Adds: sets %d", uf.Sets())
	}
	uf.Union(0, 4)
	id := uf.Add()
	if id != 5 || uf.Find(id) != id {
		t.Fatalf("Add after Union: id %d, root %d", id, uf.Find(id))
	}
	if uf.Find(0) != uf.Find(4) || uf.Find(0) == uf.Find(5) {
		t.Fatal("Add disturbed existing sets")
	}
}

func TestUnionFindMerge(t *testing.T) {
	uf := NewUnionFind(4)
	root, absorbed, merged := uf.Merge(0, 1)
	if !merged || root == absorbed {
		t.Fatalf("Merge(0,1) = (%d, %d, %v)", root, absorbed, merged)
	}
	if uf.Find(0) != root || uf.Find(1) != root {
		t.Fatalf("after merge, roots are %d and %d, want %d", uf.Find(0), uf.Find(1), root)
	}
	if uf.Find(absorbed) != root {
		t.Fatalf("absorbed representative %d no longer finds %d", absorbed, root)
	}
	again, _, merged := uf.Merge(0, 1)
	if merged || again != root {
		t.Fatalf("re-merging one set = (%d, _, %v), want (%d, _, false)", again, merged, root)
	}
	if uf.Sets() != 3 {
		t.Fatalf("sets = %d, want 3", uf.Sets())
	}
}
