//go:build race

package driver

// raceEnabled reports whether this test binary was built with -race.
// Allocation-count assertions are skipped under the race detector, whose
// instrumentation adds allocations the production build never makes.
const raceEnabled = true
