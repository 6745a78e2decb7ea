//go:build race

package graph

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation budgets are not checked under it.
const raceEnabled = true
