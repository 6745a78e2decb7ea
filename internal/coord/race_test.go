//go:build race

package coord

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation budgets are not measured under it.
const raceEnabled = true
