// Package immutclient mutates an annotated type imported from another
// package, exercising the cross-package marker lookup: a pass holds no
// syntax of its imports, so the marker is read from the declaration site.
package immutclient

import "immut"

func Mutate(b *immut.Box) {
	b.N = 1 // want `write to field N of immutable type immut.Box`
}

func Fresh() *immut.Box {
	b := &immut.Box{}
	b.N = 2
	return b
}
