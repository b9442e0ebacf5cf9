//go:build !race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, which changes what a block allocates.
const raceEnabled = false
