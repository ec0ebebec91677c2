// Contention harness for optimistic two-phase admission: one shard driven
// by 1..16 concurrent submitters, on a low-conflict and a 100%-conflict
// mix, with the optimistic path (mode=spec) against the fully serialized
// baseline (mode=serial). CI emits the results as BENCH_contention.json and
// cmd/benchgate -contention reports how speculation scales with submitters
// when conflicts are rare, and enforces that it costs no more than a few
// percent over serialized when every submission conflicts.
package rtdls_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rtdls"
)

// contentionGos is the per-shard submitter sweep.
var contentionGos = []int{1, 2, 4, 8, 16}

// BenchmarkSubmitContention measures one shard's submit throughput under
// concurrent submitters. Speculation engages only while submitters
// overlap, so mode=spec at gos=1 runs the live road, as mode=serial does.
//
// mix=cold is the overload-shedding shape speculation is built for: a
// committed backlog keeps every node busy, and the offered tasks are
// marginally infeasible — they pass the sound fast-reject, so the full
// planning loop runs off-lock, and the resulting rejects are epoch-neutral,
// so concurrent speculations almost never conflict.
//
// mix=hot is the worst case: every task is admitted, every install moves
// the epoch, and overlapping speculations conflict on nearly every submit —
// the adaptive gate must degenerate to (near-)serialized throughput.
func BenchmarkSubmitContention(b *testing.B) {
	for _, mix := range []string{"cold", "hot"} {
		for _, mode := range []string{"spec", "serial"} {
			for _, gos := range contentionGos {
				b.Run(fmt.Sprintf("mix=%s/mode=%s/gos=%d", mix, mode, gos), func(b *testing.B) {
					runContention(b, mix, mode == "spec", gos)
				})
			}
		}
	}
}

func runContention(b *testing.B, mix string, spec bool, gos int) {
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// E(σ=150..237, n=16) ≈ 2600 under the default Cms=1, Cps=100 cluster.
	const meanExec = 2600.0
	var backlog float64
	if mix == "cold" {
		// Commit one long task per node so the whole fleet is busy far into
		// the future; the clock then stays frozen, so the committed base —
		// and with it the epoch — never moves during the measurement.
		for i := 0; i < 16; i++ {
			d, err := svc.Submit(ctx, rtdls.Task{
				ID:          int64(i + 1),
				Sigma:       200,
				RelDeadline: 1e9,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !d.Accepted {
				b.Fatalf("backlog task %d rejected", i+1)
			}
		}
		if err := svc.Pump(); err != nil { // commit the backlog at t=0
			b.Fatal(err)
		}
		backlog = svc.Stats().LastRelease // every node busy until ≈ here
	}
	svc.SetSpeculation(spec)
	base := svc.Stats()

	var seq atomic.Int64
	seq.Store(1 << 20) // clear of the backlog ids
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < gos; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1)
				if n > (1<<20)+int64(b.N) {
					return
				}
				var t rtdls.Task
				if mix == "cold" {
					// Marginally infeasible: the deadline undercuts what the
					// busy fleet can deliver by just enough that the sound
					// fast-reject cannot prove it, so the planner walks the
					// whole node sweep before rejecting.
					t = rtdls.Task{
						ID:          n,
						Sigma:       150 + float64(n%8)*12.5,
						RelDeadline: backlog + 0.5*meanExec,
					}
				} else {
					clock.Advance(meanExec)
					t = rtdls.Task{
						ID:          n,
						Sigma:       150 + float64(n%8)*12.5,
						RelDeadline: 1e9,
					}
				}
				if _, err := svc.Submit(ctx, t); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()

	st := svc.Stats()
	arr := st.Arrivals - base.Arrivals
	if arr > 0 {
		b.ReportMetric(float64(st.Accepts-base.Accepts)/float64(arr), "accept_ratio")
	}
	attempts := (st.Speculative - base.Speculative) + (st.Conflicts - base.Conflicts)
	if attempts > 0 {
		b.ReportMetric(float64(st.Conflicts-base.Conflicts)/float64(attempts), "conflict_ratio")
	}
	if b.N > 0 {
		b.ReportMetric(float64(st.Speculative-base.Speculative)/float64(b.N), "speculative_frac")
	}
}
