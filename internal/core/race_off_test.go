//go:build !race

package core

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
