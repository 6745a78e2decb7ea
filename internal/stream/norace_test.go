//go:build !race

package stream_test

const raceEnabled = false
