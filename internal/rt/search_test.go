package rt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
)

// legacyPlan is the node search as every partitioner wrote it out for
// itself before they shared PlanContext.search: fresh clamped starts, a
// fresh model and fresh timelines per candidate, built from the allocating
// constructors. It is the specification the shared search must reproduce
// bit for bit.
func legacyPlan(part Partitioner, ctx *PlanContext, t *Task) (*Plan, error) {
	cm := ctx.heteroCosts()
	absD := t.AbsDeadline()
	lo, hi, limit := 0, ctx.N, absD+deadlineEps(absD)
	switch p := part.(type) {
	case UserSplit:
		if t.UserN < 1 {
			return nil, ErrInfeasible
		}
		if t.UserN > ctx.N {
			return nil, errors.New("request exceeds the cluster")
		}
		lo, hi, limit = t.UserN, t.UserN, math.Inf(1)
	case OPR:
		if p.AllNodes {
			lo = ctx.N
		}
	}
	if lo == 0 {
		var ok bool
		if lo, ok = ctx.minNodes(t, absD-ctx.startFloor(t)); !ok || lo > ctx.N {
			return nil, ErrInfeasible
		}
	}
	for n := lo; n <= hi; n++ {
		ids, starts := ctx.ClampedStarts(t, n)
		var costs []dlt.NodeCost
		if cm != nil {
			costs = cm.SelectInto(nil, ids)
		}
		pl := &Plan{Task: t, Nodes: ids, Starts: starts, Release: make([]float64, n), Rounds: 1}
		switch part.(type) {
		case IITDLT:
			m, err := core.New(ctx.P, t.Sigma, starts)
			if cm != nil {
				m, err = core.NewHetero(costs, t.Sigma, starts)
			}
			if err != nil {
				return nil, err
			}
			d, err := m.Dispatch()
			if err != nil {
				return nil, err
			}
			pl.Est = m.EstCompletion()
			if cm != nil {
				pl.Est = d.Completion
			}
			for i := range pl.Release {
				pl.Release[i] = math.Max(d.Finish[i], starts[i])
			}
			pl.Alphas = m.Alphas()
		case OPR:
			rn := starts[n-1]
			if cm == nil {
				pl.Est = rn + ctx.P.ExecTime(t.Sigma, n)
				pl.Alphas = ctx.P.Alphas(n)
			} else {
				e, err := dlt.HeteroExecTime(costs, t.Sigma)
				if err != nil {
					return nil, err
				}
				pl.Est = rn + e
				if pl.Alphas, err = dlt.HeteroAlphas(costs); err != nil {
					return nil, err
				}
			}
			for i, s := range starts {
				pl.Release[i] = pl.Est
				pl.ReservedIdle += rn - s
			}
			pl.SimultaneousStart = true
		case UserSplit:
			pl.Alphas = dlt.EqualAlphas(n)
			d, err := dlt.UserSplitDispatch(ctx.P, t.Sigma, starts)
			if cm != nil {
				d, err = dlt.SimulateDispatchHetero(costs, t.Sigma, starts, pl.Alphas)
			}
			if err != nil {
				return nil, err
			}
			pl.Est = d.Completion
			copy(pl.Release, d.Finish)
		}
		if pl.Est > limit {
			continue
		}
		return pl, nil
	}
	return nil, ErrInfeasible
}

// samePlan compares everything of two plans but the task pointer and the
// unexported seal, bit for bit.
func samePlan(a, b *Plan) bool {
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Starts, b.Starts) &&
		slices.Equal(a.Release, b.Release) && slices.Equal(a.Alphas, b.Alphas) &&
		a.Est == b.Est && a.ReservedIdle == b.ReservedIdle &&
		a.SimultaneousStart == b.SimultaneousStart && a.Rounds == b.Rounds
}

// randomPlanInput draws a cluster state (release times on a coarse grid,
// so ties are common; per-node costs for every other one) and a task whose
// deadline is tight enough that searches run several candidates and some
// fail.
func randomPlanInput(t testing.TB, rng *rand.Rand) (*PlanContext, *Task) {
	n := 1 + rng.Intn(16)
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(rng.Intn(12)) * 250
	}
	ctx := &PlanContext{P: baseline, N: n, Now: float64(rng.Intn(8)) * 200, View: NewAvailView(times)}
	if rng.Intn(2) == 0 {
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
	task := &Task{
		ID:          1,
		Arrival:     float64(rng.Intn(8)) * 200,
		Sigma:       20 + rng.Float64()*300,
		RelDeadline: 500 + rng.Float64()*6000,
		UserN:       rng.Intn(n + 2),
	}
	return ctx, task
}

var searchPartitioners = []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}

// TestSearchMatchesLegacyLoops: over random cluster states, one context —
// hence one scratch — per partitioner reproduces the plan, or the
// rejection, of the written-out loop for every input in turn.
func TestSearchMatchesLegacyLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	scratch := make([]*Candidate, len(searchPartitioners))
	for i := range scratch {
		scratch[i] = new(Candidate)
	}
	plans, longest, sealedAtFloor, sealedLater := 0, 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		ctx, task := randomPlanInput(t, rng)
		for i, part := range searchPartitioners {
			ctx.scratch = scratch[i]
			got, err := part.Plan(ctx, task)
			want, wantErr := legacyPlan(part, ctx, task)
			if (err == nil) != (wantErr == nil) || errors.Is(err, ErrInfeasible) != errors.Is(wantErr, ErrInfeasible) {
				t.Fatalf("trial %d %s: error %v, legacy loop %v", trial, part.Name(), err, wantErr)
			}
			if err != nil {
				continue
			}
			if !samePlan(got, want) {
				t.Fatalf("trial %d %s (hetero=%v): plan differs from the legacy loop:\n got  %+v\n want %+v",
					trial, part.Name(), ctx.heteroCosts() != nil, *got, *want)
			}
			plans++
			if mn, ok := part.(OPR); part == (IITDLT{}) || ok && !mn.AllNodes {
				if checkSeal(t, ctx, task, got, true) {
					if got.FirstStart() == ctx.startFloor(task) {
						sealedAtFloor++
					} else {
						sealedLater++
					}
				}
			}
			if n0, ok := ctx.minNodes(task, task.AbsDeadline()-ctx.startFloor(task)); ok && part.Name() == "dlt-iit" {
				longest = max(longest, len(got.Nodes)-n0+1)
			}
		}
	}
	if plans < 2000 || longest < 4 || sealedAtFloor < 100 || sealedLater < 100 {
		t.Fatalf("weak inputs: %d plans compared, longest search %d candidates, %d sealed at the start floor and %d after it",
			plans, longest, sealedAtFloor, sealedLater)
	}
}

// TestPlanNeverAliasesScratch: a returned plan owns its slices. Planning
// another task on the same context leaves them unchanged (the bug class
// Earliest had before it returned copies), and growing one of them cannot
// reach into the next, although the three share one allocation.
func TestPlanNeverAliasesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, part := range searchPartitioners {
		checked := 0
		for trial := 0; trial < 400; trial++ {
			ctx, a := randomPlanInput(t, rng)
			planA, err := part.Plan(ctx, a)
			if err != nil {
				continue
			}
			snap := *planA
			snap.Nodes, snap.Starts = slices.Clone(planA.Nodes), slices.Clone(planA.Starts)
			snap.Release, snap.Alphas = slices.Clone(planA.Release), slices.Clone(planA.Alphas)

			// Another task, with the view moved on by A's own assignment.
			ctx.View.Apply(planA.Nodes, planA.Release)
			b := &Task{ID: 2, Arrival: a.Arrival, Sigma: a.Sigma * 1.5, RelDeadline: a.RelDeadline * 3, UserN: 1 + rng.Intn(ctx.N)}
			if _, err := part.Plan(ctx, b); err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatal(err)
			}
			if !samePlan(planA, &snap) {
				t.Fatalf("%s: planning task B rewrote task A's plan:\n got  %+v\n want %+v", part.Name(), *planA, snap)
			}

			_ = append(planA.Nodes, -1)
			_ = append(planA.Starts, math.NaN())
			_ = append(planA.Release, math.NaN())
			_ = append(planA.Alphas, math.NaN())
			if !samePlan(planA, &snap) {
				t.Fatalf("%s: appending to one slice of the plan overwrote another:\n got  %+v\n want %+v", part.Name(), *planA, snap)
			}
			checked++
		}
		if checked < 50 {
			t.Fatalf("%s: only %d plans checked", part.Name(), checked)
		}
	}

	// One context cuts plan after plan from its arena, across chunk
	// boundaries of all three kinds: every earlier plan keeps its contents,
	// and appending to any slice of any plan leaves every other one alone.
	for _, part := range searchPartitioners {
		times := make([]float64, 16)
		for i := range times {
			times[i] = float64(rng.Intn(12)) * 250
		}
		ctx := &PlanContext{P: baseline, N: len(times), View: NewAvailView(times)}
		var plans, snaps []*Plan
		nodes := 0
		for try := 0; len(plans) <= 2*chunkLen[Plan]() || nodes <= 2*chunkLen[int]() || 3*nodes <= 2*chunkLen[float64](); try++ {
			if try == 20000 {
				t.Fatalf("%s: %d plans of %d nodes after %d tries", part.Name(), len(plans), nodes, try)
			}
			task := &Task{ID: int64(try), Sigma: 20 + rng.Float64()*300, RelDeadline: 500 + rng.Float64()*6000, UserN: 1 + rng.Intn(16)}
			pl, err := part.Plan(ctx, task)
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range [][]float64{pl.Starts, pl.Release, pl.Alphas} {
				if cap(s) != len(s) || cap(pl.Nodes) != len(pl.Nodes) {
					t.Fatalf("%s: plan slices have spare capacity: %+v", part.Name(), *pl)
				}
			}
			snap := *pl
			snap.Nodes, snap.Starts = slices.Clone(pl.Nodes), slices.Clone(pl.Starts)
			snap.Release, snap.Alphas = slices.Clone(pl.Release), slices.Clone(pl.Alphas)
			plans, snaps = append(plans, pl), append(snaps, &snap)
			nodes += len(pl.Nodes)
		}
		for round, what := range []string{"planning later tasks rewrote", "appending to the plans' slices rewrote"} {
			for i, pl := range plans {
				if !samePlan(pl, snaps[i]) {
					t.Fatalf("%s: %s plan %d of %d:\n got  %+v\n want %+v", part.Name(), what, i, len(plans), *pl, *snaps[i])
				}
			}
			if round > 0 {
				break
			}
			for _, pl := range plans {
				_ = append(pl.Nodes, -1)
				_ = append(pl.Starts, math.NaN())
				_ = append(pl.Release, math.NaN())
				_ = append(pl.Alphas, math.NaN())
			}
		}
	}
}

// TestRecycledPlanIsFresh: a plan built on a spare — on the spare's
// storage when that holds the node count, else on storage cut anew — equals,
// field for field, the plan a context without spares builds, and appending
// to one of its slices leaves the others alone.
func TestRecycledPlanIsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, part := range searchPartitioners {
		pool := new(Candidate)
		onSpare := 0
		for trial := 0; trial < 1500; trial++ {
			ctx, task := randomPlanInput(t, rng)
			want, wantErr := part.Plan(ctx, task)
			ctx.scratch = pool
			var storage *int
			if k := len(pool.spare); k > 0 {
				storage = unsafe.SliceData(pool.spare[k-1].Nodes)
			}
			got, err := part.Plan(ctx, task)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s trial %d: error %v, without spares %v", part.Name(), trial, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(*got, *want) {
				t.Fatalf("%s trial %d: plan on a spare differs:\n got  %+v\n want %+v", part.Name(), trial, *got, *want)
			}
			if unsafe.SliceData(got.Nodes) == storage {
				onSpare++
			}
			snap := *got
			snap.Nodes, snap.Starts = slices.Clone(got.Nodes), slices.Clone(got.Starts)
			snap.Release, snap.Alphas = slices.Clone(got.Release), slices.Clone(got.Alphas)
			_ = append(got.Nodes, -1)
			_ = append(got.Starts, math.NaN())
			_ = append(got.Release, math.NaN())
			_ = append(got.Alphas, math.NaN())
			if !reflect.DeepEqual(*got, snap) {
				t.Fatalf("%s trial %d: appending to one slice of the plan overwrote another", part.Name(), trial)
			}
			pool.recycle(got)
		}
		if onSpare < 100 {
			t.Fatalf("%s: only %d plans built on a spare's storage", part.Name(), onSpare)
		}
	}
}

// TestCarve: a fresh arena's first cut is exact, so a context that makes
// one plan allocates no chunk; later cuts come from chunks of about 4 KB,
// and a request larger than a chunk gets its own allocation and leaves the
// chunk being cut alone.
func TestCarve(t *testing.T) {
	size := chunkLen[int]()
	// A Plan of 144 bytes, 28 to a chunk: a field that grows it costs
	// allocations on every deep queue.
	if size != 4096/8 || chunkLen[Plan]() != 28 || chunkLen[Plan]()*int(unsafe.Sizeof(Plan{})) > 4096 || chunkLen[Task]() < 1 {
		t.Fatalf("chunks of %d ints, %d plans, %d tasks", size, chunkLen[Plan](), chunkLen[Task]())
	}
	var free []int
	if first := Carve(&free, 3); len(first) != 3 || cap(first) != 3 || free == nil || len(free) != 0 {
		t.Fatalf("first Carve(3): len %d cap %d, then %d left (nil %v)", len(first), cap(first), len(free), free == nil)
	}
	a := Carve(&free, 3)
	if len(a) != 3 || cap(a) != 3 || len(free) != size-3 {
		t.Fatalf("Carve(3) from a chunk of %d: len %d cap %d, %d left", size, len(a), cap(a), len(free))
	}
	rest := free
	big := Carve(&free, size+1)
	if len(big) != size+1 || cap(big) != size+1 || len(free) != size-3 {
		t.Fatalf("Carve(%d) beyond a chunk of %d: len %d cap %d, %d left", size+1, size, len(big), cap(big), len(free))
	}
	b := Carve(&free, size-3)
	if &b[0] != &rest[0] || len(free) != 0 {
		t.Fatalf("the chunk was not cut on after the big request")
	}
	if c := Carve(&free, 1); len(c) != 1 || len(free) != size-1 {
		t.Fatalf("an exhausted chunk was not replaced: %d left", len(free))
	}
}

// allocInput is a 16-node cluster busy until t = 1200 but for node 0, free
// at the start floor so that no search is anchored — per-node costs when
// hetero is set — and the tightest task of a deadline sweep that the
// partitioner still plans: for those that search, ñ_min(t) is then far below
// what the wait forces. It returns how many candidates that search runs.
func allocInput(t testing.TB, part Partitioner, hetero bool) (ctx *PlanContext, task *Task, cands int) {
	const n = 16
	times := make([]float64, n)
	for i := range times {
		times[i] = 1200
	}
	times[0] = 0
	ctx = &PlanContext{P: baseline, N: n, View: NewAvailView(times)}
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
	for d := 1500.0; d < 20000; d += 50 {
		task = &Task{ID: 1, Sigma: 200, RelDeadline: d, UserN: 9}
		pl, err := new(queueState).checkDeadline(part.Plan(ctx, task))
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		n0, _ := ctx.minNodes(task, d)
		return ctx, task, len(pl.Nodes) - n0 + 1
	}
	t.Fatalf("%s hetero=%v: no deadline of the sweep is feasible", part.Name(), hetero)
	return nil, nil, 0
}

// TestPlanAllocs pins what a fresh plan costs once the context's scratch is
// warm: nothing of its own, however many candidates the search ran. The
// Plan, its node ids and its float block are cut from the arena's chunks,
// so the only allocations left are chunk refills: for these plans of up to
// 16 nodes a float chunk every 10 plans, a Plan chunk every 28 and an id
// chunk every 32, about 0.16 per plan.
func TestPlanAllocs(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		for _, part := range searchPartitioners {
			ctx, task, cands := allocInput(t, part, hetero)
			if searches := part == (IITDLT{}) || part == (OPR{}); searches && cands < 4 {
				t.Fatalf("%s hetero=%v: the search ran %d candidates, want >= 4", part.Name(), hetero, cands)
			}
			// AllocsPerRun truncates its mean to a whole number, so each
			// run makes a hundred plans.
			allocs := testing.AllocsPerRun(20, func() {
				for range 100 {
					if _, err := part.Plan(ctx, task); err != nil {
						t.Fatal(err)
					}
				}
			}) / 100
			if allocs > 0.25 {
				t.Errorf("%s hetero=%v: %.2f allocs per fresh plan, want <= 0.25", part.Name(), hetero, allocs)
			}
		}
	}
}

// BenchmarkPlanIITDLT times one fresh IITDLT.Plan on a long-lived context,
// as the scheduler calls it: cands=1 ends on the bound it starts at,
// cands=4 runs three failing candidates first, as a search past the
// anchored start does behind staggered releases.
func BenchmarkPlanIITDLT(b *testing.B) {
	for _, bc := range []struct {
		cands       int
		busyUntil   func(node int) float64
		relDeadline float64
	}{
		{1, func(i int) float64 { return float64(i%3) * 700 }, 4000},
		{4, func(i int) float64 { return 600 + 100*float64(i) }, 3125},
	} {
		b.Run(fmt.Sprintf("cands=%d", bc.cands), func(b *testing.B) {
			avail := make([]float64, 16)
			for i := range avail {
				avail[i] = bc.busyUntil(i)
			}
			ctx := newCtx(baseline, avail, 0)
			task := &Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: bc.relDeadline}
			cands := 0
			if _, err := ctx.PlanMinNodes(task, countingIIT{n: &cands}); err != nil {
				b.Fatal(err)
			}
			if cands != bc.cands {
				b.Fatalf("the search ran %d candidates, want %d", cands, bc.cands)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (IITDLT{}).Plan(ctx, task); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
