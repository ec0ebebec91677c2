//go:build !race

package pool

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
