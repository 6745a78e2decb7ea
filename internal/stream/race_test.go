//go:build race

package stream_test

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation budgets are not checked under it.
const raceEnabled = true
