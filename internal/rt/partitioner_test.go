package rt

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

// newCtx builds a plan context over the given per-node availability.
func newCtx(p dlt.Params, avail []float64, now float64) *PlanContext {
	times := make([]float64, len(avail))
	copy(times, avail)
	return &PlanContext{P: p, N: len(avail), Now: now, View: NewAvailView(times)}
}

func TestIITDLTIdleCluster(t *testing.T) {
	// On a fully idle cluster ñ_min(t) suffices and starts are "now".
	ctx := newCtx(baseline, make([]float64, 16), 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 2718}
	pl, err := IITDLT{}.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	// ñ_min for slack 2718 is 8 (cf. dlt tests).
	if len(pl.Nodes) != 8 {
		t.Fatalf("allocated %d nodes, want 8", len(pl.Nodes))
	}
	for _, s := range pl.Starts {
		if s != 0 {
			t.Fatalf("idle cluster should start at 0, got %v", pl.Starts)
		}
	}
	if pl.Est > task.AbsDeadline() {
		t.Fatalf("est %v misses deadline %v", pl.Est, task.AbsDeadline())
	}
	// No IITs ⇒ the estimate equals r_n + E(σ,n).
	wantEst := baseline.ExecTime(200, 8)
	if math.Abs(pl.Est-wantEst) > 1e-9*wantEst {
		t.Fatalf("est = %v, want %v", pl.Est, wantEst)
	}
	if pl.ReservedIdle != 0 {
		t.Fatalf("dlt-iit must not reserve idle time")
	}
}

func TestIITDLTUsesIITs(t *testing.T) {
	// 6 nodes idle now, 10 released at 1500 by a running task. The task
	// needs more than 6 nodes, so it must wait for node 7 — but under
	// IIT-DLT the idle nodes compute during the wait, so the estimate beats
	// r_n + E(σ,n).
	avail := []float64{0, 0, 0, 0, 0, 0, 1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500}
	ctx := newCtx(baseline, avail, 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 2718} // ñ_min(t) = 8 > 6 idle
	pl, err := IITDLT{}.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	n := len(pl.Nodes)
	if n <= 6 {
		t.Fatalf("task should need more than the 6 idle nodes, got %d", n)
	}
	rn := pl.Rn()
	if rn != 1500 {
		t.Fatalf("rn = %v, want 1500", rn)
	}
	noIIT := rn + baseline.ExecTime(200, n)
	if !(pl.Est < noIIT-1) {
		t.Fatalf("est %v should clearly beat the no-IIT completion %v", pl.Est, noIIT)
	}
}

func TestIITDLTExpandsBeyondNminT(t *testing.T) {
	// ñ_min(t) = 8 for slack 2718, but with every node busy until 1200 the
	// 8-node estimate misses the deadline; the partitioner must allocate
	// more nodes to compensate.
	avail := make([]float64, 16)
	for i := range avail {
		avail[i] = 1200
	}
	ctx := newCtx(baseline, avail, 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 2718}
	pl, err := IITDLT{}.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Nodes) <= 8 {
		t.Fatalf("expected expansion beyond ñ_min(t)=8, got %d nodes", len(pl.Nodes))
	}
	if pl.Est > task.AbsDeadline()+1e-6 {
		t.Fatalf("est %v misses deadline %v", pl.Est, task.AbsDeadline())
	}
}

func TestIITDLTInfeasible(t *testing.T) {
	// Deadline shorter than the input transmission time: γ ≤ 0.
	ctx := newCtx(baseline, make([]float64, 4), 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 150}
	if _, err := (IITDLT{}).Plan(ctx, task); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	// Cluster too small: ñ_min(t) > N.
	ctx = newCtx(baseline, make([]float64, 2), 0)
	task = &Task{ID: 2, Arrival: 0, Sigma: 200, RelDeadline: 2718} // needs 8
	if _, err := (IITDLT{}).Plan(ctx, task); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	// All nodes busy so long that no expansion can help.
	avail := make([]float64, 16)
	for i := range avail {
		avail[i] = 1e6
	}
	ctx = newCtx(baseline, avail, 0)
	task = &Task{ID: 3, Arrival: 0, Sigma: 200, RelDeadline: 2718}
	if _, err := (IITDLT{}).Plan(ctx, task); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestIITDLTPerNodeReleases(t *testing.T) {
	avail := []float64{0, 0, 0, 800, 800, 800, 800, 800}
	ctx := newCtx(baseline, avail, 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 150, RelDeadline: 3500}
	pl, err := IITDLT{}.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pl.Release {
		if pl.Release[i] > pl.Est+1e-9*pl.Est {
			t.Fatalf("release[%d]=%v exceeds Theorem-4 estimate %v", i, pl.Release[i], pl.Est)
		}
		if pl.Release[i] < pl.Starts[i] {
			t.Fatalf("release[%d]=%v before start %v", i, pl.Release[i], pl.Starts[i])
		}
	}
}

func TestOPRStartsSimultaneously(t *testing.T) {
	avail := []float64{0, 0, 0, 0, 0, 0, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}
	ctx := newCtx(baseline, avail, 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 4000}
	pl, err := OPR{}.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	n := len(pl.Nodes)
	rn := pl.Rn()
	want := rn + baseline.ExecTime(200, n)
	if math.Abs(pl.Est-want) > 1e-9*want {
		t.Fatalf("OPR est = %v, want rn+E = %v", pl.Est, want)
	}
	// The idle nodes are reserved from their own release to rn.
	wantReserved := 0.0
	for _, s := range pl.Starts {
		wantReserved += rn - s
	}
	if math.Abs(pl.ReservedIdle-wantReserved) > 1e-9 {
		t.Fatalf("ReservedIdle = %v, want %v", pl.ReservedIdle, wantReserved)
	}
	if n > 6 && pl.ReservedIdle == 0 {
		t.Fatalf("mixing idle and busy nodes must waste IITs under OPR")
	}
}

func TestOPRNeverBeatsIITDLT(t *testing.T) {
	// On identical cluster states, the IIT-utilising estimate is never
	// worse than the OPR estimate for the same or fewer nodes.
	rng := rand.New(rand.NewPCG(8, 15))
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.IntN(13)
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = float64(rng.IntN(3)) * 900 * rng.Float64()
		}
		task := &Task{
			ID:          int64(trial),
			Arrival:     0,
			Sigma:       20 + 400*rng.Float64(),
			RelDeadline: 2000 + 4000*rng.Float64(),
		}
		dltPlan, dltErr := IITDLT{}.Plan(newCtx(baseline, avail, 0), task)
		oprPlan, oprErr := OPR{}.Plan(newCtx(baseline, avail, 0), task)
		if oprErr != nil {
			continue // OPR infeasible; DLT may or may not be.
		}
		if dltErr != nil {
			t.Fatalf("trial %d: OPR feasible but DLT not: %v", trial, dltErr)
		}
		if len(dltPlan.Nodes) > len(oprPlan.Nodes) {
			t.Fatalf("trial %d: DLT needed more nodes (%d) than OPR (%d)",
				trial, len(dltPlan.Nodes), len(oprPlan.Nodes))
		}
		if len(dltPlan.Nodes) == len(oprPlan.Nodes) && dltPlan.Est > oprPlan.Est*(1+1e-9) {
			t.Fatalf("trial %d: DLT est %v worse than OPR est %v at equal n",
				trial, dltPlan.Est, oprPlan.Est)
		}
	}
}

func TestOPRAllNodes(t *testing.T) {
	avail := []float64{0, 5, 10, 15}
	ctx := newCtx(baseline, avail, 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 50, RelDeadline: 1e6}
	pl, err := OPR{AllNodes: true}.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Nodes) != 4 {
		t.Fatalf("OPR-AN must use all nodes, got %d", len(pl.Nodes))
	}
	want := 15 + baseline.ExecTime(50, 4)
	if math.Abs(pl.Est-want) > 1e-9*want {
		t.Fatalf("est = %v, want %v", pl.Est, want)
	}
}

func TestUserSplitPlan(t *testing.T) {
	avail := []float64{0, 0, 100, 100}
	ctx := newCtx(baseline, avail, 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 40, RelDeadline: 5000, UserN: 4}
	pl, err := UserSplit{}.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Nodes) != 4 {
		t.Fatalf("user-split must use exactly UserN nodes")
	}
	d, err := dlt.UserSplitDispatch(baseline, 40, pl.Starts)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Est != d.Completion {
		t.Fatalf("est %v != exact completion %v", pl.Est, d.Completion)
	}
	for i := range pl.Release {
		if pl.Release[i] != d.Finish[i] {
			t.Fatalf("user-split releases each node at its own finish")
		}
	}
	for i, a := range pl.Alphas {
		if math.Abs(a-0.25) > 1e-12 {
			t.Fatalf("alpha[%d]=%v, want equal chunks", i, a)
		}
	}
}

func TestUserSplitInfeasibleWithoutRequest(t *testing.T) {
	ctx := newCtx(baseline, make([]float64, 4), 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 40, RelDeadline: 5000, UserN: 0}
	if _, err := (UserSplit{}).Plan(ctx, task); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("UserN=0 must be infeasible, got %v", err)
	}
}

func TestUserSplitRequestExceedsCluster(t *testing.T) {
	ctx := newCtx(baseline, make([]float64, 4), 0)
	task := &Task{ID: 1, Arrival: 0, Sigma: 40, RelDeadline: 5000, UserN: 9}
	if _, err := (UserSplit{}).Plan(ctx, task); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("UserN > N is a hard error, got %v", err)
	}
}

func TestClampedStartsFloorsPastReleases(t *testing.T) {
	// Nodes idle since t=2 must not let a task start in the past.
	ctx := newCtx(baseline, []float64{2, 2, 2, 2}, 10)
	task := &Task{ID: 1, Arrival: 6, Sigma: 5, RelDeadline: 5000}
	_, starts := ctx.ClampedStarts(task, 4)
	for _, s := range starts {
		if s != 10 {
			t.Fatalf("starts must clamp to now=10, got %v", starts)
		}
	}
}

// TestPartitionerDeadlineGuarantee: whatever plan any partitioner emits,
// the exact dispatch of that plan finishes within the admission estimate —
// the property the scheduler's deadline check relies on.
func TestPartitionerDeadlineGuarantee(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	parts := []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.IntN(15)
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = 2000 * rng.Float64() * float64(rng.IntN(2))
		}
		task := &Task{
			ID:          int64(trial),
			Arrival:     0,
			Sigma:       10 + 500*rng.Float64(),
			RelDeadline: 1000 + 6000*rng.Float64(),
			UserN:       1 + rng.IntN(n),
		}
		for _, part := range parts {
			pl, err := part.Plan(newCtx(baseline, avail, 0), task)
			if err != nil {
				continue
			}
			if part.Name() == "opr-mn" || part.Name() == "opr-an" {
				// OPR computes from r_n; dispatch at starts=r_i would model
				// IIT use it does not perform. Its est is exact by
				// construction: r_n + E.
				continue
			}
			d, err := dlt.SimulateDispatch(baseline, task.Sigma, pl.Starts, pl.Alphas)
			if err != nil {
				t.Fatalf("%s: dispatch failed: %v", part.Name(), err)
			}
			if d.Completion > pl.Est*(1+1e-9) {
				t.Fatalf("%s trial %d: actual %v exceeds estimate %v",
					part.Name(), trial, d.Completion, pl.Est)
			}
		}
	}
}

// Silence unused import when the cluster package is only used by other test
// files in this package.
var _ = cluster.New
