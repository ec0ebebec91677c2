package multiround

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatalf("rounds=0 must fail")
	}
	if _, err := New(-1); err == nil {
		t.Fatalf("negative rounds must fail")
	}
	p, err := New(4)
	if err != nil || p.Rounds() != 4 {
		t.Fatalf("New(4) = %v, %v", p, err)
	}
	if p.Name() != "dlt-mr4" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name   string
		avail  []float64
		totals []float64
		rounds int
		sigma  float64
	}{
		{"empty", nil, nil, 1, 1},
		{"len mismatch", []float64{0}, []float64{0.5, 0.5}, 1, 1},
		{"zero rounds", []float64{0}, []float64{1}, 0, 1},
		{"unsorted", []float64{5, 1}, []float64{0.5, 0.5}, 2, 1},
		{"negative total", []float64{0, 1}, []float64{1.5, -0.5}, 2, 1},
		{"bad sigma", []float64{0}, []float64{1}, 1, math.Inf(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Schedule(baseline, c.sigma, c.avail, c.totals, c.rounds); err == nil {
				t.Fatalf("expected error")
			}
		})
	}
}

func TestSingleRoundMatchesDispatch(t *testing.T) {
	// With R=1, the multi-round timeline is exactly the single-round
	// sequential dispatch.
	avail := []float64{0, 10, 400}
	totals := []float64{0.5, 0.3, 0.2}
	tl, err := Schedule(baseline, 123, avail, totals, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dlt.SimulateDispatch(baseline, 123, avail, totals)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tl.Completion-d.Completion) > 1e-9 {
		t.Fatalf("R=1 completion %v != dispatch %v", tl.Completion, d.Completion)
	}
	for i := range avail {
		if math.Abs(tl.Finish[i]-d.Finish[i]) > 1e-9 {
			t.Fatalf("R=1 finish[%d] %v != dispatch %v", i, tl.Finish[i], d.Finish[i])
		}
	}
}

func TestMoreRoundsNeverWorseOnEqualAvail(t *testing.T) {
	// With all nodes available simultaneously and the homogeneous-optimal
	// totals, splitting into installments lets computation start earlier on
	// every node, so completion can only improve or stay equal.
	totals := baseline.Alphas(8)
	avail := make([]float64, 8)
	base, err := Schedule(baseline, 200, avail, totals, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := base.Completion
	for _, r := range []int{2, 4, 8, 16} {
		tl, err := Schedule(baseline, 200, avail, totals, r)
		if err != nil {
			t.Fatal(err)
		}
		if tl.Completion > prev+1e-9 {
			t.Fatalf("R=%d completion %v worse than previous %v", r, tl.Completion, prev)
		}
		prev = tl.Completion
	}
	if !(prev < base.Completion) {
		t.Fatalf("multi-round should strictly improve the single-round time")
	}
}

func TestTimelineRespectsAvailability(t *testing.T) {
	avail := []float64{0, 500, 1000}
	totals := []float64{0.4, 0.35, 0.25}
	tl, err := Schedule(baseline, 100, avail, totals, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range avail {
		if tl.Finish[i] < avail[i] {
			t.Fatalf("node %d finished at %v before it was available at %v",
				i, tl.Finish[i], avail[i])
		}
	}
	if tl.Completion < avail[2] {
		t.Fatalf("completion before last availability")
	}
}

func TestZeroSigma(t *testing.T) {
	tl, err := Schedule(baseline, 0, []float64{3, 7}, []float64{0.5, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Completion != 7 {
		t.Fatalf("zero load should complete at the last availability, got %v", tl.Completion)
	}
}

func newCtx(avail []float64, now float64) *rt.PlanContext {
	times := make([]float64, len(avail))
	copy(times, avail)
	return &rt.PlanContext{P: baseline, N: len(avail), Now: now, View: rt.NewAvailView(times)}
}

func TestPlanMeetsDeadlineOrRejects(t *testing.T) {
	part, _ := New(3)
	rng := rand.New(rand.NewPCG(3, 14))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.IntN(15)
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = 1500 * rng.Float64() * float64(rng.IntN(2))
		}
		task := &rt.Task{
			ID:          int64(trial),
			Arrival:     0,
			Sigma:       10 + 400*rng.Float64(),
			RelDeadline: 800 + 5000*rng.Float64(),
		}
		pl, err := part.Plan(newCtx(avail, 0), task)
		if err != nil {
			if !errors.Is(err, rt.ErrInfeasible) {
				t.Fatalf("unexpected error: %v", err)
			}
			continue
		}
		if pl.Est > task.AbsDeadline()*(1+1e-9) {
			// The scheduler would reject this plan; the partitioner may
			// legitimately return it only if it meets the deadline.
			t.Fatalf("plan misses deadline: est %v > %v", pl.Est, task.AbsDeadline())
		}
		for i := range pl.Release {
			if pl.Release[i] < pl.Starts[i]-1e-9 {
				t.Fatalf("release before start at node %d", i)
			}
		}
	}
}

func TestPlanNeverWorseThanSingleRound(t *testing.T) {
	// The partitioner takes min(multi-round, single-round) for the same
	// node set, so its estimate is never above the single-round Theorem-4
	// estimate for that allocation.
	part, _ := New(4)
	rng := rand.New(rand.NewPCG(7, 21))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.IntN(15)
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = 1200 * rng.Float64() * float64(rng.IntN(2))
		}
		task := &rt.Task{
			ID:          int64(trial),
			Arrival:     0,
			Sigma:       10 + 300*rng.Float64(),
			RelDeadline: 2000 + 6000*rng.Float64(),
		}
		pl, err := part.Plan(newCtx(avail, 0), task)
		if err != nil {
			continue
		}
		m, err := core.New(baseline, task.Sigma, pl.Starts)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Est > m.EstCompletion()*(1+1e-9) {
			t.Fatalf("multi-round plan est %v worse than single-round %v",
				pl.Est, m.EstCompletion())
		}
	}
}

// TestMultiRoundBeatsStartTogetherBound is why the node search of the
// multi-round partitioner keeps the start floor's bound and is not anchored
// at the earliest node's release r_1 like rt.IITDLT's: installments overlap
// transmission with computation, so one node busy until r_1 can finish by
// r_1 + σ·Cms/R + σ·Cps, before r_1 + E(σ,1) = r_1 + σ·(Cms + Cps), the
// bound that anchoring rests on. The deadline here sits between the two:
// multi-round admits one node, below ñ_min(A + D − r_1) = 2, where the
// single-round estimate of IIT-DLT needs two.
func TestMultiRoundBeatsStartTogetherBound(t *testing.T) {
	const rounds, sigma, r1 = 4, 100.0, 1000.0
	part, err := New(rounds)
	if err != nil {
		t.Fatal(err)
	}
	piped := r1 + sigma*baseline.Cms/rounds + sigma*baseline.Cps // 11025
	together := r1 + baseline.ExecTime(sigma, 1)                 // 11100
	task := &rt.Task{ID: 1, Arrival: 0, Sigma: sigma, RelDeadline: (piped + together) / 2}
	limit := task.AbsDeadline()
	if n, ok := dlt.MinNodesBound(baseline, sigma, limit-r1); !ok || n != 2 {
		t.Fatalf("ñ_min(A + D − r_1) = %d (ok %v), want 2", n, ok)
	}
	ctx := newCtx([]float64{r1, r1, r1, r1}, 0)
	pl, err := part.Plan(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Nodes) != 1 || pl.Rounds != rounds || pl.Est != piped {
		t.Fatalf("multi-round plan: %d nodes, %d rounds, est %v; want 1 node, %d rounds, est %v",
			len(pl.Nodes), pl.Rounds, pl.Est, rounds, piped)
	}
	if pl, err := (rt.IITDLT{}).Plan(ctx, task); err != nil || len(pl.Nodes) != 2 {
		t.Fatalf("IIT-DLT plan %+v (err %v), want 2 nodes", pl, err)
	}
}

var _ rt.Partitioner = Partitioner{}
