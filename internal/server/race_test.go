//go:build race

package server

// raceEnabled reports a build with the race detector, which drops a quarter
// of sync.Pool puts at random: an allocation ceiling does not hold under it.
const raceEnabled = true
