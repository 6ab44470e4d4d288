//go:build race

package server_test

// raceEnabled reports a -race build, whose allocation counts drift
// from a plain build's and vary between runs.
const raceEnabled = true
