//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop items at random, so allocation pins do not hold under it.
const raceEnabled = true
