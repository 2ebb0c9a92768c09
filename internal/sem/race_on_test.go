//go:build race

package sem

// raceEnabled reports that the race detector is active; timing-ratio
// assertions are skipped because instrumentation overhead distorts the
// relative speed of loop structures.
const raceEnabled = true
