//go:build race

package consistent_test

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation budgets are not measured under it.
const raceEnabled = true
