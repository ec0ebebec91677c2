//go:build benchgate

package rt

import (
	"fmt"
	"testing"
)

// TestGateIndexGrowth holds the availability index's contract, run by
// `make bench-gate`: over a ×100 fleet (×625 for the index alone) the
// per-submit and per-retiming ns/op grow at most ×15, where a cost linear in
// the fleet grows about ×100 and the index stays flat up to a logarithmic
// factor. A ratio of two timings on one machine, so it holds on any machine.
// BenchmarkSubmitQueued's queue=8 → 128 growth is reported beside it; its
// contracts are TestQueuedCounts' exact counts.
func TestGateIndexGrowth(t *testing.T) {
	const limit = 15
	queued := func(mix string) func(*testing.B, int) {
		return func(b *testing.B, depth int) { benchSubmitQueued(b, depth, mix) }
	}
	for _, g := range []struct {
		name   string
		lo, hi int
		bench  func(*testing.B, int)
		gated  bool
	}{
		{"BenchmarkSubmit nodes", 100, 10000, benchSubmitNodes, true},
		{"BenchmarkSubmitFastReject nodes", 100, 10000, benchSubmitFastReject, true},
		{"BenchmarkAvailViewRetime nodes", 16, 10000, benchAvailViewRetime, true},
		{"BenchmarkSubmitQueued mix=late queue", 8, 128, queued("late"), false},
		{"BenchmarkSubmitQueued mix=saturated queue", 8, 128, queued("saturated"), false},
	} {
		lo, hi := nsPerOp(t, g.bench, g.lo), nsPerOp(t, g.bench, g.hi)
		verdict := "reported, not gated"
		if g.gated {
			verdict = fmt.Sprintf("limit x%d", limit)
		}
		t.Logf("%s=%d %.1f ns/op -> %d %.1f ns/op: x%.2f (%s)", g.name, g.lo, lo, g.hi, hi, hi/lo, verdict)
		if g.gated && hi/lo > limit {
			t.Errorf("%s: x%.2f growth over limit x%d: the cost grows with the fleet", g.name, hi/lo, limit)
		}
	}
}

func nsPerOp(t *testing.T, bench func(*testing.B, int), size int) float64 {
	r := testing.Benchmark(func(b *testing.B) { bench(b, size) })
	if r.N == 0 {
		t.Fatalf("benchmark at size %d failed", size)
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
