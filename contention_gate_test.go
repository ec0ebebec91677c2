//go:build benchgate

package rtdls_test

import (
	"runtime"
	"testing"
)

// TestGateHotMixContention holds optimistic admission's contention contract,
// run by `make bench-gate`: on the hot mix at every contended width
// (gos ≥ 4) speculation keeps at least ×0.9 of serialized throughput — it
// may not cost much where it seldom pays. Its premise is real parallelism:
// on one proc submitters never overlap, and below 4 procs the ratio is set
// by which goroutine is preempted inside the lock (an unchanged tree has
// read ×0.46 to ×3.31 there), so it gates on 4 procs or more, reports below
// that and skips on one. Each ratio is logged with the mix's conflict_ratio;
// the cold mix's scaling is reported beside them.
func TestGateHotMixContention(t *testing.T) {
	const floor = 0.9
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("submitters cannot overlap on %d proc, no conflicts occur", procs)
	}
	run := func(mix string, spec bool, gos int) (nsPerOp float64, r testing.BenchmarkResult) {
		r = testing.Benchmark(func(b *testing.B) { runContention(b, mix, spec, gos) })
		if r.N == 0 {
			t.Fatalf("mix=%s spec=%v gos=%d: benchmark failed", mix, spec, gos)
		}
		return float64(r.T.Nanoseconds()) / float64(r.N), r
	}
	cold1, _ := run("cold", true, 1)
	cold8, _ := run("cold", true, 8)
	coldSerial8, _ := run("cold", false, 8)
	t.Logf("cold mix gos=8 spec %.1f ns/op: x%.2f the throughput of gos=1, x%.2f of serial gos=8 on %d procs (reported, not gated)",
		cold8, cold1/cold8, coldSerial8/cold8, procs)
	for _, gos := range contentionGos {
		if gos < 4 {
			continue // uncontended widths: conflicts too rare to engage the backoff
		}
		spec, r := run("hot", true, gos)
		serial, _ := run("hot", false, gos)
		verdict := "ok"
		switch {
		case serial/spec >= floor:
		case procs < 4:
			verdict = "below the floor, not gated on fewer than 4 procs"
		default:
			verdict = "FAIL"
			t.Fail()
		}
		t.Logf("hot mix gos=%d spec %.1f ns/op vs serial %.1f ns/op: x%.2f of serialized throughput (floor x%.2f), conflict_ratio %.4f: %s",
			gos, spec, serial, serial/spec, floor, r.Extra["conflict_ratio"], verdict)
	}
}
