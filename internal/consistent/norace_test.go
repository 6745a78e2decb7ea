//go:build !race

package consistent_test

const raceEnabled = false
