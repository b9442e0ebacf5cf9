//go:build !race

package service

// raceEnabled reports whether the test binary runs under the race
// detector, which changes what a request allocates.
const raceEnabled = false
