//go:build !race

package core

// raceEnabled reports a build with the race detector (see race_test.go).
const raceEnabled = false
