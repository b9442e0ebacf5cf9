// Command erlint is the repo's own static-analysis suite: five analyzers
// that mechanically enforce invariants the codebase otherwise carries by
// convention — publish-immutability of snapshots and serving indexes
// (immutable), context-threaded cancelable concurrency (ctxflow), %w
// wrapping and errors.Is sentinel matching (errwrap), fsync-before-ack and
// the faultfs seam (syncack), and Registry-owned ersolve_-namespaced
// metrics (metricreg).
//
// It runs from anywhere inside a module, over ./...-style or import-path
// patterns (default ./...), type-checking from source:
//
//	erlint ./...
//	erlint -list # the analyzers and what each enforces
//
// Diagnostics are suppressed with a justified directive:
//
//	// erlint:ignore <reason>
//
// on the flagged line or the line above; a reasonless ignore is itself a
// finding. Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import "os"

func main() {
	os.Exit(standalone(os.Args[1:]))
}
