//go:build !race

package driver

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
