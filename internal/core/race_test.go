//go:build race

package core

// raceEnabled reports a build with the race detector, which drops a quarter
// of sync.Pool puts at random: a ceiling on what a warm pool saves does not
// hold under it.
const raceEnabled = true
