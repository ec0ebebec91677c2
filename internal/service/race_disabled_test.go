//go:build !race

package service

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
