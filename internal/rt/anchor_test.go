package rt

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rtdls/internal/dlt"
)

// floorPlan is PlanMinNodes with the node search started where Fig. 2
// starts it, at the bound of the slack from the start floor: the
// specification the anchored start must reproduce, bit for bit. The seals
// may differ; checkSeal holds each to what the scheduler's keeps needs of it.
func floorPlan(ctx *PlanContext, t *Task, e Estimator) (*Plan, error) {
	absD := t.AbsDeadline()
	slack := absD - ctx.startFloor(t)
	n0, ok := ctx.minNodes(t, slack)
	if !ok || n0 > ctx.N {
		return nil, ErrInfeasible
	}
	pl, err := ctx.search(t, n0, ctx.N, absD+deadlineEps(absD), e)
	if err != nil {
		return nil, err
	}
	pl.fromBound = true
	ctx.sealMinNodes(pl, slack)
	return pl, nil
}

// boundAtR1 reports whether PlanMinNodes, for an anchored estimator, takes
// its bound at the slack from r_1 — widened as its comment says — because
// that is below the slack from the start floor. Its plan then starts at r_1.
func boundAtR1(ctx *PlanContext, task *Task) bool {
	if ctx.heteroCosts() != nil || ctx.N == 0 {
		return false
	}
	absD, floor, r1 := task.AbsDeadline(), ctx.startFloor(task), ctx.View.EarliestTimeAt(1)
	wide := 1 + 1e-9*(ctx.P.Cms+ctx.P.Cps)/ctx.P.Cms
	return r1 > floor && (absD+2*deadlineEps(absD)-r1)*wide < absD-floor
}

// checkSeal fails the test unless pl, a fresh plan of PlanMinNodes planned
// on ctx, carries a seal the scheduler's keeps can trust, and reports
// whether it is sealed. The plan must be sealed when the bound fits it at
// the slack of its own first start, and when an anchored search (anchored
// set) took its bound at r_1; the bound at the seal must fit the plan; and
// at every start floor of a grid from the current one to the plan's first
// start — where the scheduler can keep the plan — keeps must keep it
// exactly when the bound at that floor's slack fits it. Nor may the seal
// cover a slack, from half of it up, at which the bound exceeds the plan.
func checkSeal(t *testing.T, ctx *PlanContext, task *Task, pl *Plan, anchored bool) bool {
	t.Helper()
	absD, floor, first := task.AbsDeadline(), ctx.startFloor(task), pl.FirstStart()
	fits := func(slack float64) bool {
		n, ok := ctx.minNodes(task, slack)
		return ok && n <= len(pl.Nodes)
	}
	sealed := pl.minSlack > 0
	if !sealed && (fits(absD-first) || anchored && boundAtR1(ctx, task)) {
		t.Fatalf("task %d (floor %v, first start %v, deadline %v): plan on %d nodes is not sealed",
			task.ID, floor, first, absD, len(pl.Nodes))
	}
	if sealed && !fits(pl.minSlack) {
		t.Fatalf("task %d (floor %v, first start %v, deadline %v): sealed at slack %v, where the bound exceeds %d nodes",
			task.ID, floor, first, absD, pl.minSlack, len(pl.Nodes))
	}
	floors := []float64{first, absD - pl.minSlack}
	for k := 0; k < 8; k++ {
		floors = append(floors, floor+(first-floor)*float64(k)/8)
	}
	for f, k := first, 0; k < 3; k++ {
		f = math.Nextafter(f, math.Inf(-1))
		floors = append(floors, f)
	}
	for _, f := range floors {
		if !(f >= floor && f <= first) {
			continue
		}
		if kept, want := ctx.keeps(pl, absD-f), fits(absD-f); kept != want {
			t.Fatalf("task %d (floor %v, first start %v, deadline %v, seal %v): at floor %v kept %v, want %v (sealed there %v)",
				task.ID, floor, first, absD, pl.minSlack, f, kept, want, pl.sealedAt(absD-f))
		}
	}
	for k := 0; k <= 8; k++ {
		s := pl.minSlack * (0.5 + float64(k)/16)
		for _, s := range []float64{s, math.Nextafter(s, math.Inf(-1))} {
			if pl.sealedAt(s) && !fits(s) {
				t.Fatalf("task %d (floor %v, first start %v, deadline %v): the seal %v covers slack %v, where the bound exceeds %d nodes",
					task.ID, floor, first, absD, pl.minSlack, s, len(pl.Nodes))
			}
		}
	}
	return sealed
}

// anchoredPartitioners are the partitioners whose search is anchored.
var anchoredPartitioners = []interface {
	Partitioner
	Estimator
}{IITDLT{}, OPR{}}

// sameAnchored fails the test unless, for each anchored partitioner, Plan
// and the floor-started search end the same way: the same error class, or
// plans equal bit for bit, each sealed as checkSeal requires. It returns
// how many of the floor searches ran a failing candidate past an earliest
// node busy after the start floor, which is what the anchor may skip.
func sameAnchored(t *testing.T, ctx *PlanContext, task *Task) (skippable int) {
	t.Helper()
	absD, floor := task.AbsDeadline(), ctx.startFloor(task)
	for _, part := range anchoredPartitioners {
		got, err := part.Plan(ctx, task)
		want, wantErr := floorPlan(ctx, task, part)
		if (err == nil) != (wantErr == nil) || errors.Is(err, ErrInfeasible) != errors.Is(wantErr, ErrInfeasible) {
			t.Fatalf("%s (β=%v, N=%d, floor %v, r_1 %v, deadline %v): error %v, floor start %v",
				part.Name(), ctx.P.Beta(), ctx.N, floor, ctx.View.EarliestTimeAt(1), absD, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !samePlan(got, want) {
			t.Fatalf("%s (β=%v, N=%d, floor %v, r_1 %v, deadline %v): the anchored plan differs:\n got  %+v\n want %+v",
				part.Name(), ctx.P.Beta(), ctx.N, floor, ctx.View.EarliestTimeAt(1), absD, *got, *want)
		}
		checkSeal(t, ctx, task, got, true)
		checkSeal(t, ctx, task, want, false)
		if n0, _ := ctx.minNodes(task, absD-floor); ctx.View.EarliestTimeAt(1) > floor && len(want.Nodes) > n0 {
			skippable++
		}
	}
	return skippable
}

// anchorTrial draws a homogeneous cluster with Cps/Cms = 10^logRatio whose
// earliest node frees lead after the task's start floor, and a task, and
// checks the anchored against the floor-started search. With near set, the
// deadline is moved to a few ulps either side of where the estimate of one
// candidate meets it. It returns sameAnchored's count, summed.
func anchorTrial(t *testing.T, rng *rand.Rand, logRatio, lead float64, near bool) (skippable int) {
	t.Helper()
	p := dlt.Params{Cms: 1, Cps: math.Pow(10, logRatio)}
	n := 1 + rng.Intn(24)
	now := float64(rng.Intn(4)) * 100
	task := &Task{ID: 1, Arrival: float64(rng.Intn(4)) * 100, Sigma: 1 + 99*rng.Float64()}
	floor := max(now, task.Arrival)
	e1 := p.ExecTime(task.Sigma, 1)
	times := make([]float64, n)
	cur := floor + lead
	flat := rng.Intn(3) == 0 // every node frees at r_1: the bound is tight
	for i := range times {
		times[i] = cur
		if !flat && rng.Intn(2) == 0 {
			cur += rng.Float64() * e1 / float64(n)
		}
	}
	rng.Shuffle(n, func(i, j int) { times[i], times[j] = times[j], times[i] })
	ctx := &PlanContext{P: p, N: n, Now: now, View: NewAvailView(times)}

	absD := max(floor, floor+lead) + p.ExecTime(task.Sigma, 1+rng.Intn(n))*(0.7+0.6*rng.Float64())
	ulps := 0
	if near {
		part := anchoredPartitioners[rng.Intn(len(anchoredPartitioners))]
		k := 1 + rng.Intn(n)
		pl, err := ctx.search(task, k, k, math.Inf(1), part)
		if err != nil {
			t.Fatal(err)
		}
		absD, ulps = pl.Est-deadlineEps(pl.Est), 3
	}
	for u := -ulps; u <= ulps; u++ {
		d := absD
		for i := 0; i < u; i++ {
			d = math.Nextafter(d, math.Inf(1))
		}
		for i := 0; i > u; i-- {
			d = math.Nextafter(d, math.Inf(-1))
		}
		task.RelDeadline = d - task.Arrival
		skippable += sameAnchored(t, ctx, task)
	}
	return skippable
}

// TestAnchoredSearchMatchesFloorStart: over random homogeneous cluster
// states — β from 0.001 to 1 − 10⁻¹², the earliest node free before, at,
// within ε of or far past the start floor, deadlines within a few ulps of
// a candidate's estimate — IITDLT and OPR-MN plan exactly what the search
// started at the start floor's bound plans.
func TestAnchoredSearchMatchesFloorStart(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	skippable := 0
	for trial := 0; trial < 4000; trial++ {
		logRatio := []float64{-3, 0, 2, 4, 6, 8, 10, 12}[trial%8]
		e1 := (1 + math.Pow(10, logRatio)) * 100
		lead := [...]float64{
			0,
			-rng.Float64() * e1,
			rng.Float64() * 1e-9, // inside deadlineEps of any deadline
			rng.Float64() * e1 / 10,
			rng.Float64() * e1 * 3,
		}[trial/8%5]
		skippable += anchorTrial(t, rng, logRatio, lead, trial/40%2 == 1)
	}
	t.Logf("%d searches ran a candidate the anchor may skip", skippable)
	if skippable < 1000 {
		t.Fatalf("weak inputs: only %d searches ran a candidate the anchor may skip", skippable)
	}
}

// FuzzAnchoredSearch is TestAnchoredSearchMatchesFloorStart over fuzzed
// cluster states.
func FuzzAnchoredSearch(f *testing.F) {
	f.Add(int64(1), 2.0, 0.0, false)
	f.Add(int64(2), 2.0, 5e-10, true)
	f.Add(int64(3), 6.0, 1e-10, true)
	f.Add(int64(4), -3.0, 40.0, true)
	f.Add(int64(5), 4.0, 3e5, false)
	f.Add(int64(6), 0.0, -50.0, true)
	f.Add(int64(7), 9.0, 103.0, true)
	f.Add(int64(8), 10.666666666666666, 599968.3333333334, true)
	f.Fuzz(func(t *testing.T, seed int64, logRatio, lead float64, near bool) {
		if !(logRatio >= -4 && logRatio <= 12) || !(math.Abs(lead) <= 1e9) {
			t.Skip()
		}
		anchorTrial(t, rand.New(rand.NewSource(seed)), logRatio, lead, near)
	})
}

// countingIIT is IITDLT counting the candidates it evaluates. It embeds
// IITDLT, so its searches are anchored.
type countingIIT struct {
	IITDLT
	n *int
}

func (c countingIIT) Estimate(cd *Candidate) (float64, error) {
	*c.n++
	return c.IITDLT.Estimate(cd)
}

// heldIIT forwards to an IITDLT it holds as a field, as an estimator of
// another package would: it cannot claim the marker, so its searches start
// at the start floor.
type heldIIT struct {
	iit IITDLT
	n   *int
}

func (h heldIIT) Estimate(cd *Candidate) (float64, error) {
	*h.n++
	return h.iit.Estimate(cd)
}

func (h heldIIT) Finish(cd *Candidate, pl *Plan) error { return h.iit.Finish(cd, pl) }

// TestAnchorSkipsCandidates: behind a deep queue every node is busy past
// the start floor, so the floor bound asks for far fewer nodes than the
// wait forces. The anchored search evaluates fewer candidates for the same
// plan; an estimator that does not embed IITDLT evaluates them all.
func TestAnchorSkipsCandidates(t *testing.T) {
	times := make([]float64, 16)
	for i := range times {
		times[i] = 2000 + 150*float64(i)
	}
	ctx := newCtx(baseline, times, 0)
	var anchored, floor, skipped int
	for d := 2000.0; d < 12000; d += 250 {
		task := &Task{ID: 1, Sigma: 200, RelDeadline: d}
		var anchoredN, floorN, heldN int
		got, err := ctx.PlanMinNodes(task, countingIIT{n: &anchoredN})
		want, wantErr := floorPlan(ctx, task, countingIIT{n: &floorN})
		held, heldErr := ctx.PlanMinNodes(task, heldIIT{n: &heldN})
		if errors.Is(err, ErrInfeasible) && errors.Is(wantErr, ErrInfeasible) && errors.Is(heldErr, ErrInfeasible) {
			continue
		}
		if err != nil || wantErr != nil || heldErr != nil {
			t.Fatalf("deadline %v: errors %v, %v, %v", d, err, wantErr, heldErr)
		}
		if !samePlan(got, want) || !samePlan(held, want) {
			t.Fatalf("deadline %v: plans differ:\n anchored %+v\n floor    %+v\n held     %+v", d, *got, *want, *held)
		}
		checkSeal(t, ctx, task, got, true)
		checkSeal(t, ctx, task, held, false)
		if anchoredN > floorN || heldN != floorN {
			t.Fatalf("deadline %v: %d candidates anchored, %d from the floor, %d held; want at most the floor's, and the floor's",
				d, anchoredN, floorN, heldN)
		}
		anchored, floor = anchored+anchoredN, floor+floorN
		if anchoredN < floorN {
			skipped++
		}
	}
	t.Logf("%d candidates anchored, %d from the start floor; %d searches skipped some", anchored, floor, skipped)
	if skipped < 10 || 4*anchored > 3*floor {
		t.Fatalf("the anchor skipped candidates in %d searches, %d of %d evaluated; want >= 10 and at most 3/4", skipped, anchored, floor)
	}
}
