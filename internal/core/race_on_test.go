//go:build race

package core

// raceEnabled reports whether the race detector is active: the race
// runtime changes what a run allocates, so the cost gate skips under it.
const raceEnabled = true
