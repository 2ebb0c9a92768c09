//go:build !race

package comm

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
