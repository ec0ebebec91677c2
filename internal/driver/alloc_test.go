package driver

import (
	"runtime"
	"testing"
)

// TestRunMarginalBytes pins what one more arrival costs Run on the heap:
// the difference in allocated bytes between a long and a short run of the
// same stream, over the difference in their arrivals. Run feeds every
// arrival through one task and one Decision it reuses, and the shards
// recycle task records and plans, so an arrival leaves nothing behind; the
// budget leaves room for the arenas' 4 KB chunk refills.
func TestRunMarginalBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the budget holds only on production builds")
	}
	run := func(cfg Config) (bytes uint64, arrivals int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.TotalAlloc - m0.TotalAlloc, r.Arrivals
	}
	for _, alg := range Algorithms() {
		cfg := Default()
		cfg.Algorithm, cfg.SystemLoad, cfg.Seed = alg, 0.9, 1
		cfg.Horizon = 1e6
		b1, n1 := run(cfg)
		cfg.Horizon = 1e7
		b2, n2 := run(cfg)
		if per := float64(b2-b1) / float64(n2-n1); per > 4 {
			t.Errorf("%s: an arrival costs Run %.1f B (%d B over %d arrivals), want at most 4", alg, per, b2-b1, n2-n1)
		} else {
			t.Logf("%s: %.2f B per arrival over %d arrivals", alg, per, n2-n1)
		}
	}
}
