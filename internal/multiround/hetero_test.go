package multiround

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

// ScheduleHetero is Schedule over per-node cost coefficients: node i's
// installments are transmitted at its own Cms_i and computed at its own
// Cps_i. costs, avail and totals are parallel, in dispatch order. With
// every cost equal it reproduces Schedule operation for operation.
func ScheduleHetero(costs []dlt.NodeCost, sigma float64, avail, totals []float64, rounds int) (*Timeline, error) {
	n := len(costs)
	if n == 0 || len(avail) != n || len(totals) != n {
		return nil, fmt.Errorf("multiround: %d costs, %d avail times, %d totals", n, len(avail), len(totals))
	}
	for i, c := range costs {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("multiround: costs[%d]: %w", i, err)
		}
	}
	return newTimeline(dlt.Params{}, costs, sigma, avail, totals, rounds)
}

// TestScheduleHeteroUniformBitIdentical: the per-node-cost timeline with a
// uniform table reproduces the homogeneous Schedule exactly.
func TestScheduleHeteroUniformBitIdentical(t *testing.T) {
	p := dlt.Params{Cms: 1, Cps: 100}
	rng := rand.New(rand.NewPCG(43, 47))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(8)
		costs := make([]dlt.NodeCost, n)
		for i := range costs {
			costs[i] = dlt.NodeCost{Cms: p.Cms, Cps: p.Cps}
		}
		avail := make([]float64, n)
		acc := 0.0
		for i := range avail {
			acc += rng.Float64() * 200
			avail[i] = acc
		}
		totals := make([]float64, n)
		for i := range totals {
			totals[i] = rng.Float64()
		}
		rounds := 1 + rng.IntN(5)
		sigma := rng.Float64() * 300
		want, err := Schedule(p, sigma, avail, totals, rounds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ScheduleHetero(costs, sigma, avail, totals, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if got.Completion != want.Completion {
			t.Fatalf("completion differs: %v vs %v", got.Completion, want.Completion)
		}
		for i := range want.Finish {
			if got.Finish[i] != want.Finish[i] {
				t.Fatalf("finish %d differs: %v vs %v", i, got.Finish[i], want.Finish[i])
			}
		}
	}
}

// TestHeteroPlanExactEstimate: on a heterogeneous cluster the multi-round
// partitioner's admission estimate is exactly reproducible — re-simulating
// the returned plan's timeline yields Est.
func TestHeteroPlanExactEstimate(t *testing.T) {
	costs := []dlt.NodeCost{
		{Cms: 1, Cps: 100},
		{Cms: 1, Cps: 300},
		{Cms: 2, Cps: 60},
		{Cms: 0.5, Cps: 150},
	}
	cl, err := cluster.NewHetero(costs)
	if err != nil {
		t.Fatal(err)
	}
	part, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.NewScheduler(cl, rt.EDF, part)
	task := &rt.Task{ID: 1, Arrival: 0, Sigma: 120, RelDeadline: 50000}
	pl, err := s.Admit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil {
		t.Fatalf("task rejected")
	}
	sel := cl.Costs().SelectInto(nil, pl.Nodes)
	var completion float64
	if pl.Rounds > 1 {
		tl, err := ScheduleHetero(sel, task.Sigma, pl.Starts, pl.Alphas, pl.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		completion = tl.Completion
	} else {
		d, err := dlt.SimulateDispatchHetero(sel, task.Sigma, pl.Starts, pl.Alphas)
		if err != nil {
			t.Fatal(err)
		}
		completion = d.Completion
	}
	if math.Abs(completion-pl.Est) > 1e-9*math.Max(1, pl.Est) {
		t.Fatalf("Est=%v but exact timeline completes at %v", pl.Est, completion)
	}
	if pl.Est > task.AbsDeadline() {
		t.Fatalf("estimate %v past deadline %v", pl.Est, task.AbsDeadline())
	}
}
