//go:build race

package server

// raceEnabled reports whether this test binary was built with -race.
// Allocation-count assertions are skipped under the race detector: its
// instrumentation adds allocations, and sync.Pool drops a random share of
// the buffers put back.
const raceEnabled = true
