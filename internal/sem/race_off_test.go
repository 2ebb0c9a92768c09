//go:build !race

package sem

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
