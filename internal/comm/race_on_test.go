//go:build race

package comm

// raceEnabled reports that the race detector is active: its runtime
// drops sync.Pool entries at random, so allocation ceilings do not hold.
const raceEnabled = true
