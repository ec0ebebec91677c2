package multiround

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

// legacyPlan is the node search as the partitioner wrote it out before it
// became an rt.Estimator: start floor, tolerance, clamped starts, model and
// both timelines built afresh per candidate. It is the specification the
// shared search must reproduce bit for bit.
func legacyPlan(p Partitioner, ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	cm := ctx.Costs
	if cm != nil && cm.Uniform() {
		cm = nil
	}
	absD := t.AbsDeadline()
	slack := absD - math.Max(ctx.Now, t.Arrival)
	n0, ok := dlt.MinNodesBound(ctx.P, t.Sigma, slack)
	if cm != nil {
		n0, ok = dlt.HeteroMinNodesBound(cm, t.Sigma, slack)
	}
	if !ok || n0 > ctx.N {
		return nil, rt.ErrInfeasible
	}
	eps := 1e-9 * math.Max(1, math.Abs(absD))
	for n := n0; n <= ctx.N; n++ {
		ids, starts := make([]int, n), make([]float64, n)
		ctx.View.EarliestInto(ids, starts)
		for i := range starts {
			starts[i] = math.Max(starts[i], math.Max(ctx.Now, t.Arrival))
		}
		var m *core.Model
		var tl *Timeline
		var err error
		if cm == nil {
			if m, err = core.New(ctx.P, t.Sigma, starts); err == nil {
				tl, err = Schedule(ctx.P, t.Sigma, starts, m.Alphas(), p.rounds)
			}
		} else {
			costs := cm.SelectInto(nil, ids)
			if m, err = core.NewHetero(costs, t.Sigma, starts); err == nil {
				tl, err = ScheduleHetero(costs, t.Sigma, starts, m.Alphas(), p.rounds)
			}
		}
		if err != nil {
			return nil, err
		}
		d, err := m.Dispatch()
		if err != nil {
			return nil, err
		}
		srEst := m.EstCompletion()
		if cm != nil {
			srEst = d.Completion
		}
		if math.Min(tl.Completion, srEst) > absD+eps {
			continue
		}
		pl := &rt.Plan{Task: t, Nodes: ids, Starts: starts, Release: make([]float64, n), Alphas: m.Alphas()}
		if tl.Completion <= srEst {
			copy(pl.Release, tl.Finish)
			pl.Est, pl.Rounds = tl.Completion, p.rounds
			return pl, nil
		}
		for i := range pl.Release {
			pl.Release[i] = math.Max(d.Finish[i], starts[i])
		}
		pl.Est, pl.Rounds = srEst, 1
		return pl, nil
	}
	return nil, rt.ErrInfeasible
}

// planInput draws a cluster state and a tight task, with per-node costs
// for every other one.
func planInput(t testing.TB, rng *rand.Rand) (*rt.PlanContext, *rt.Task) {
	n := 1 + rng.IntN(16)
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(rng.IntN(12)) * 250
	}
	ctx := &rt.PlanContext{P: baseline, N: n, Now: float64(rng.IntN(8)) * 200, View: rt.NewAvailView(times)}
	if rng.IntN(2) == 0 {
		costs := make([]dlt.NodeCost, n)
		for i := range costs {
			costs[i] = dlt.NodeCost{Cms: 0.5 + rng.Float64(), Cps: 50 + rng.Float64()*150}
		}
		cm, err := dlt.NewCostModel(costs)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Costs = cm
	}
	return ctx, &rt.Task{
		ID:          1,
		Arrival:     float64(rng.IntN(8)) * 200,
		Sigma:       20 + rng.Float64()*300,
		RelDeadline: 500 + rng.Float64()*6000,
	}
}

// TestSearchMatchesLegacyLoops: on a context that lives across all inputs
// of a partitioner — one scratch — every plan, fallback and rejection is
// the written-out loop's. Both the multi-round and the single-round
// outcome must occur.
func TestSearchMatchesLegacyLoops(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 6))
	for _, rounds := range []int{1, 2, 5} {
		p, _ := New(rounds)
		var live rt.PlanContext // carries the scratch from input to input
		multi, single := 0, 0
		for trial := 0; trial < 2000; trial++ {
			ctx, task := planInput(t, rng)
			live.P, live.N, live.Now, live.View, live.Costs = ctx.P, ctx.N, ctx.Now, ctx.View, ctx.Costs
			got, err := p.Plan(&live, task)
			want, wantErr := legacyPlan(p, ctx, task)
			if (err == nil) != (wantErr == nil) || errors.Is(err, rt.ErrInfeasible) != errors.Is(wantErr, rt.ErrInfeasible) {
				t.Fatalf("rounds=%d trial %d: error %v, legacy loop %v", rounds, trial, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !samePlan(got, want) {
				t.Fatalf("rounds=%d trial %d: plan differs from the legacy loop:\n got  %+v\n want %+v", rounds, trial, *got, *want)
			}
			if got.Rounds == rounds {
				multi++
			} else {
				single++
			}
		}
		if multi < 100 || (rounds > 1 && single < 3) {
			t.Fatalf("rounds=%d: weak inputs: %d multi-round plans, %d single-round fallbacks", rounds, multi, single)
		}
	}
}

// TestPlanNeverAliasesScratch: planning a second task on the same context
// leaves the first plan's slices alone, and they cannot grow into each
// other.
func TestPlanNeverAliasesScratch(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 7))
	p, _ := New(3)
	checked := 0
	for trial := 0; trial < 400; trial++ {
		ctx, a := planInput(t, rng)
		planA, err := p.Plan(ctx, a)
		if err != nil {
			continue
		}
		snap := *planA
		snap.Nodes, snap.Starts = slices.Clone(planA.Nodes), slices.Clone(planA.Starts)
		snap.Release, snap.Alphas = slices.Clone(planA.Release), slices.Clone(planA.Alphas)

		ctx.View.Apply(planA.Nodes, planA.Release)
		b := &rt.Task{ID: 2, Arrival: a.Arrival, Sigma: a.Sigma * 1.5, RelDeadline: a.RelDeadline * 3}
		if _, err := p.Plan(ctx, b); err != nil && !errors.Is(err, rt.ErrInfeasible) {
			t.Fatal(err)
		}
		_ = append(planA.Nodes, -1)
		_ = append(planA.Starts, math.NaN())
		_ = append(planA.Release, math.NaN())
		_ = append(planA.Alphas, math.NaN())
		if !samePlan(planA, &snap) {
			t.Fatalf("plan of task A changed under it:\n got  %+v\n want %+v", *planA, snap)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d plans checked", checked)
	}
}

// TestPlanAllocs pins a fresh multi-round plan on a warm context at no
// allocation of its own — the plan is cut from the context's arena, whose
// chunk refills cost about 0.16 per plan of up to 16 nodes — for the
// tightest deadline of a sweep that 16 nodes busy until t = 1200 still
// meet, a search of at least four candidates.
func TestPlanAllocs(t *testing.T) {
	const n = 16
	p, _ := New(4)
	for _, hetero := range []bool{false, true} {
		times := make([]float64, n)
		for i := range times {
			times[i] = 1200
		}
		ctx := &rt.PlanContext{P: baseline, N: n, View: rt.NewAvailView(times)}
		if hetero {
			costs := make([]dlt.NodeCost, n)
			for i := range costs {
				costs[i] = dlt.NodeCost{Cms: 1 + float64(i%3)/4, Cps: 100 * (1 + float64(i%4)/4)}
			}
			cm, err := dlt.NewCostModel(costs)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Costs = cm
		}
		var task *rt.Task
		var pl *rt.Plan
		for d := 1500.0; pl == nil; d += 50 {
			if d > 20000 {
				t.Fatalf("hetero=%v: no deadline of the sweep is feasible", hetero)
			}
			task = &rt.Task{ID: 1, Sigma: 200, RelDeadline: d}
			var err error
			if pl, err = p.Plan(ctx, task); err != nil && !errors.Is(err, rt.ErrInfeasible) {
				t.Fatal(err)
			}
		}
		n0, _ := dlt.MinNodesBound(baseline, task.Sigma, task.RelDeadline)
		if hetero {
			n0, _ = dlt.HeteroMinNodesBound(ctx.Costs, task.Sigma, task.RelDeadline)
		}
		if cands := len(pl.Nodes) - n0 + 1; cands < 4 {
			t.Fatalf("hetero=%v: the search ran %d candidates, want >= 4", hetero, cands)
		}
		// AllocsPerRun truncates its mean to a whole number, so each run
		// makes a hundred plans.
		allocs := testing.AllocsPerRun(20, func() {
			for range 100 {
				if _, err := p.Plan(ctx, task); err != nil {
					t.Fatal(err)
				}
			}
		}) / 100
		if allocs > 0.25 {
			t.Errorf("hetero=%v: %.2f allocs per fresh plan, want <= 0.25", hetero, allocs)
		}
	}
}
