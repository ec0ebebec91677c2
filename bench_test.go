// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (internal/experiments/panels.go is the index), plus ablation and
// micro-benchmarks. Each figure benchmark regenerates its panel(s) at a
// reduced horizon per iteration and reports the per-algorithm mean Task
// Reject Ratio across the load sweep as custom metrics, so `go test
// -bench=.` shows not just the cost but the *result shape* — who wins and
// by how much. cmd/figures produces the full-scale data files.
package rtdls_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rtdls"
	"rtdls/internal/experiments"
)

// benchOpts is the per-iteration scale: one paired seed over the full load
// sweep at a short horizon. Orderings at this scale match the full-scale
// runs; absolute levels are slightly noisier.
func benchOpts() experiments.Options {
	return experiments.Options{Horizon: 1.2e5, Runs: 1, BaseSeed: 42, Workers: 2}
}

// runPanels executes the panels once per iteration and reports, for every
// algorithm of every panel, the mean reject ratio across the load sweep.
func runPanels(b *testing.B, ids ...string) {
	b.Helper()
	panels := make([]experiments.Panel, 0, len(ids))
	for _, id := range ids {
		p, ok := experiments.PanelByID(id)
		if !ok {
			b.Fatalf("unknown panel %s", id)
		}
		panels = append(panels, p)
	}
	var last []*experiments.PanelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunAll(panels, benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = rs
	}
	b.StopTimer()
	for _, r := range last {
		for ai, alg := range r.Panel.Algs {
			sum := 0.0
			for _, c := range r.Cells {
				sum += c.RejectRatio[ai].Mean
			}
			metric := fmt.Sprintf("%s:%s_rr", r.Panel.ID, sanitize(alg.Name))
			b.ReportMetric(sum/float64(len(r.Cells)), metric)
		}
	}
}

func sanitize(s string) string {
	return strings.NewReplacer(" ", "", "/", "-").Replace(s)
}

// --- One benchmark per paper figure -----------------------------------

// BenchmarkFig03_IITBenefitBaseline regenerates Fig. 3a/3b: EDF-DLT vs
// EDF-OPR-MN on the baseline configuration.
func BenchmarkFig03_IITBenefitBaseline(b *testing.B) { runPanels(b, "f03") }

// BenchmarkFig04_DCRatioEDF regenerates Fig. 4a–d: DCRatio ∈ {3,10,20,100}.
func BenchmarkFig04_DCRatioEDF(b *testing.B) { runPanels(b, "f04a", "f04b", "f04c", "f04d") }

// BenchmarkFig05_UserSplitEDF regenerates Fig. 5a–b: EDF-DLT vs
// EDF-UserSplit at DCRatio 2 and 10.
func BenchmarkFig05_UserSplitEDF(b *testing.B) { runPanels(b, "f05a", "f05b") }

// BenchmarkFig06_AvgSigmaEDF regenerates Fig. 6a–d: Avgσ ∈ {100,…,800}.
func BenchmarkFig06_AvgSigmaEDF(b *testing.B) { runPanels(b, "f06a", "f06b", "f06c", "f06d") }

// BenchmarkFig07_CmsEDF regenerates Fig. 7a–d: Cms ∈ {1,2,4,8}.
func BenchmarkFig07_CmsEDF(b *testing.B) { runPanels(b, "f07a", "f07b", "f07c", "f07d") }

// BenchmarkFig08_CpsEDF regenerates Fig. 8a–f: Cps ∈ {10,…,10000}.
func BenchmarkFig08_CpsEDF(b *testing.B) {
	runPanels(b, "f08a", "f08b", "f08c", "f08d", "f08e", "f08f")
}

// BenchmarkFig09_DCRatioFIFO regenerates Fig. 9a–d (FIFO mirror of Fig. 4).
func BenchmarkFig09_DCRatioFIFO(b *testing.B) { runPanels(b, "f09a", "f09b", "f09c", "f09d") }

// BenchmarkFig10_AvgSigmaFIFO regenerates Fig. 10a–d (FIFO mirror of Fig. 6).
func BenchmarkFig10_AvgSigmaFIFO(b *testing.B) { runPanels(b, "f10a", "f10b", "f10c", "f10d") }

// BenchmarkFig11_CmsFIFO regenerates Fig. 11a–d (FIFO mirror of Fig. 7).
func BenchmarkFig11_CmsFIFO(b *testing.B) { runPanels(b, "f11a", "f11b", "f11c", "f11d") }

// BenchmarkFig12_CpsFIFO regenerates Fig. 12a–f (FIFO mirror of Fig. 8).
func BenchmarkFig12_CpsFIFO(b *testing.B) {
	runPanels(b, "f12a", "f12b", "f12c", "f12d", "f12e", "f12f")
}

// BenchmarkFig13_UserSplitAvgSigmaEDF regenerates Fig. 13a–d.
func BenchmarkFig13_UserSplitAvgSigmaEDF(b *testing.B) {
	runPanels(b, "f13a", "f13b", "f13c", "f13d")
}

// BenchmarkFig14_UserSplitCpsEDF regenerates Fig. 14a–h (Cps sweep plus
// DCRatio ∈ {3,10}).
func BenchmarkFig14_UserSplitCpsEDF(b *testing.B) {
	runPanels(b, "f14a", "f14b", "f14c", "f14d", "f14e", "f14f", "f14g", "f14h")
}

// BenchmarkFig15_UserSplitAvgSigmaFIFO regenerates Fig. 15a–d.
func BenchmarkFig15_UserSplitAvgSigmaFIFO(b *testing.B) {
	runPanels(b, "f15a", "f15b", "f15c", "f15d")
}

// BenchmarkFig16_UserSplitCpsFIFO regenerates Fig. 16a–h.
func BenchmarkFig16_UserSplitCpsFIFO(b *testing.B) {
	runPanels(b, "f16a", "f16b", "f16c", "f16d", "f16e", "f16f", "f16g", "f16h")
}

// BenchmarkAgg330_WinRate reproduces the Sec. 5.2 aggregate statistic: the
// fraction of DLT-vs-UserSplit configurations each side wins and the
// winners' reject-ratio gains.
func BenchmarkAgg330_WinRate(b *testing.B) {
	ids := []string{
		"f05a", "f05b",
		"f13a", "f13b", "f13c", "f13d",
		"f14a", "f14b", "f14c", "f14d", "f14e", "f14f", "f14g", "f14h",
		"f15a", "f15b", "f15c", "f15d",
		"f16a", "f16b", "f16c", "f16d", "f16e", "f16f", "f16g", "f16h",
	}
	panels := make([]experiments.Panel, 0, len(ids))
	for _, id := range ids {
		p, _ := experiments.PanelByID(id)
		panels = append(panels, p)
	}
	var usWinPct, dltAvgGain, usAvgGain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunAll(panels, benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		edf, err := experiments.Compare(rs, "EDF-DLT", "EDF-UserSplit")
		if err != nil {
			b.Fatal(err)
		}
		fifo, err := experiments.Compare(rs, "FIFO-DLT", "FIFO-UserSplit")
		if err != nil {
			b.Fatal(err)
		}
		cells := edf.Cells + fifo.Cells
		usWinPct = 100 * float64(edf.BWins+fifo.BWins) / float64(cells)
		dltAvgGain = (edf.AvgGainA*float64(edf.AWins) + fifo.AvgGainA*float64(fifo.AWins)) /
			float64(max(1, edf.AWins+fifo.AWins))
		usAvgGain = (edf.AvgGainB*float64(edf.BWins) + fifo.AvgGainB*float64(fifo.BWins)) /
			float64(max(1, edf.BWins+fifo.BWins))
	}
	b.StopTimer()
	b.ReportMetric(usWinPct, "usersplit_win_%")
	b.ReportMetric(dltAvgGain, "dlt_avg_gain")
	b.ReportMetric(usAvgGain, "usersplit_avg_gain")
}

// BenchmarkExtraN_ClusterSize covers the paper's unshown N sweep ("results
// are similar"): N ∈ {8, 32, 64}.
func BenchmarkExtraN_ClusterSize(b *testing.B) { runPanels(b, "xNa", "xNb", "xNc") }

// --- Service hot path ---------------------------------------------------

// BenchmarkServiceSubmit measures the admission-control hot path of the
// long-lived service: one Submit — auto-commit of due transmissions plus
// the full Fig. 2 schedulability test — at ≈100% offered load, so the
// waiting queue stays realistically busy and both accept and reject paths
// are exercised.
func BenchmarkServiceSubmit(b *testing.B) {
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	accepts := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(2600) // ≈ E(200,16): one mean task per mean service time
		dec, err := svc.Submit(ctx, rtdls.Task{
			ID:          int64(i + 1),
			Sigma:       150 + float64(i%8)*12.5,
			RelDeadline: 5200,
		})
		if err != nil {
			b.Fatal(err)
		}
		if dec.Accepted {
			accepts++
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(accepts)/float64(b.N), "accept_ratio")
	}
}

// submitAllocs returns the heap allocations per Submit of the task next
// builds for each run, failing the test unless every decision is accepted
// when accept is set and rejected by the schedulability test otherwise.
func submitAllocs(t *testing.T, svc *rtdls.Service, accept bool, next func(id int64) rtdls.Task) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the budget holds only on production builds")
	}
	ctx := context.Background()
	var id int64
	return testing.AllocsPerRun(500, func() {
		id++
		dec, err := svc.Submit(ctx, next(id))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Accepted != accept || !accept && dec.Reason != rtdls.ReasonInfeasible {
			t.Fatalf("task %d: accepted=%v (%v), want %v", id, dec.Accepted, dec.Reason, accept)
		}
	})
}

// TestServiceSubmitAllocs pins BenchmarkServiceSubmit's allocation budget
// on its exact workload (accept-heavy, one mean task per mean service
// time) at zero per submit: the task's record comes from the shard's free
// list, the accepted Decision's copies from its arenas, the fresh plan
// from the scheduler's plan pool, and the committed plans land in a buffer
// the scheduler keeps. Only chunk refills allocate, far less than once per
// submit, so any per-submit allocation — a plan, a candidate, a commit, a
// task or decision copy — fails here before it shows up in a benchmark.
func TestServiceSubmitAllocs(t *testing.T) {
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	allocs := submitAllocs(t, svc, true, func(id int64) rtdls.Task {
		clock.Advance(2600)
		return rtdls.Task{ID: id, Sigma: 150 + float64(id%8)*12.5, RelDeadline: 5200}
	})
	if allocs != 0 {
		t.Fatalf("Submit allocates %.0f times per accepted task, want 0", allocs)
	}
}

// TestServiceSubmitRejectAllocs is its reject twin: a task that 16 idle
// nodes cannot finish by its deadline, though they have the capacity for
// it, is rejected by the schedulability test with no allocation either.
func TestServiceSubmitRejectAllocs(t *testing.T) {
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	allocs := submitAllocs(t, svc, false, func(id int64) rtdls.Task {
		clock.Advance(10)
		return rtdls.Task{ID: id, Sigma: 0.155 * 5200, RelDeadline: 5200}
	})
	if allocs != 0 {
		t.Fatalf("Submit allocates %.0f times per rejected task, want 0", allocs)
	}
}

// TestPoolSpillRejectAllocs: on a 4-shard Spillover pool, a task more than
// any shard can serve by its deadline is offered to every shard, and each
// rejects it through the demand bound. The four shard tests allocate
// nothing: each shard takes the task's record from its own free list and
// gives it back after the reject.
func TestPoolSpillRejectAllocs(t *testing.T) {
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock), rtdls.WithShards(4), rtdls.WithNodes(8),
		rtdls.WithPlacement(rtdls.Spillover{}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	before := svc.Stats().DemandRejects
	allocs := submitAllocs(t, svc, false, func(id int64) rtdls.Task {
		clock.Advance(10)
		return rtdls.Task{ID: id, Sigma: 1000, RelDeadline: 5200}
	})
	if d := svc.Stats().DemandRejects - before; d != 4*501 { // AllocsPerRun warms up with one more run
		t.Fatalf("%d demand-bound rejects over 501 submits, want 4 each", d)
	}
	if allocs != 0 {
		t.Fatalf("Submit allocates %.0f times per task four shards reject, want 0", allocs)
	}
}

// BenchmarkServiceSubmitParallel drives the same service from GOMAXPROCS
// goroutines, measuring contention on the single admission lock.
func BenchmarkServiceSubmitParallel(b *testing.B) {
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			n := id.Add(1)
			clock.Advance(2600)
			if _, err := svc.Submit(ctx, rtdls.Task{
				ID:          n,
				Sigma:       150 + float64(n%8)*12.5,
				RelDeadline: 5200,
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServiceSubmitHopeless measures the reject fast path end to
// end: every submission's deadline is below its bare transmission time,
// so admission resolves at the scheduler's first shortcut — the demand
// bound (the load is more than 16 nodes compute in that time), which runs
// ahead of the ñ_min fast-reject — without replanning the waiting queue.
// This is the service-level cost of shedding hopeless load during an
// overload spike.
func BenchmarkServiceSubmitHopeless(b *testing.B) {
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(100)
		dec, err := svc.Submit(ctx, rtdls.Task{
			ID:          int64(i + 1),
			Sigma:       5000,
			RelDeadline: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if dec.Accepted {
			b.Fatal("hopeless task admitted")
		}
	}
}

// --- Ablations (the x* panels of internal/experiments/panels.go) ------

// BenchmarkAblationRounds sweeps the multi-round extension's installment
// count (paper Sec. 6 future work): EDF-DLT vs MR2/MR4/MR8.
func BenchmarkAblationRounds(b *testing.B) { runPanels(b, "xMR") }

// BenchmarkAblationAllNodes contrasts OPR-AN (all N nodes, no IITs by
// construction) with OPR-MN and DLT — why the paper excludes AN despite
// its reject ratio.
func BenchmarkAblationAllNodes(b *testing.B) { runPanels(b, "xAN") }

// BenchmarkAblationPolicy isolates the scheduling-policy decision: the
// same DLT partitioner under EDF vs FIFO (compare the f03 vs f09-family
// metrics emitted by the two panels).
func BenchmarkAblationPolicy(b *testing.B) {
	p1, _ := experiments.PanelByID("f03")
	p2 := p1
	p2.ID = "f03-fifo"
	p2.Algs = []experiments.Algorithm{experiments.FIFODLT, experiments.FIFOOPRMN}
	var last []*experiments.PanelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunAll([]experiments.Panel{p1, p2}, benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = rs
	}
	b.StopTimer()
	for _, r := range last {
		sum := 0.0
		for _, c := range r.Cells {
			sum += c.RejectRatio[0].Mean
		}
		b.ReportMetric(sum/float64(len(r.Cells)), sanitize(r.Panel.Algs[0].Name)+"_rr")
	}
}
