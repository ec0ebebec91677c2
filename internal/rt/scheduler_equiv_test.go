package rt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
)

// This file proves the bit-for-bit claim end to end: a production
// scheduler — persistent indexed view, incremental base sync,
// infeasibility fast-reject, plans and view checkpoints kept across
// arrivals — must emit exactly the same admission decisions, plans,
// commits, displacements and counters as the reference scheduler
// (refScheduler: a fresh snapshot per submit and per sweep, a fully sorted
// view per plan, no fast-reject, every plan recomputed) over identical
// randomized streams with fleet churn and hopeless tasks mixed in.

// noHint is the full-replan reference: it returns a copy of the wrapped
// partitioner's plan with the seal and the fromBound mark cleared, so the
// scheduler keeps no plan and every task of every tentative schedule is
// planned afresh; it forwards the fast-reject unchanged.
type noHint struct{ Partitioner }

func (p noHint) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	pl, err := p.Partitioner.Plan(ctx, t)
	if pl == nil {
		return nil, err
	}
	unsealed := *pl
	unsealed.minSlack, unsealed.fromBound = 0, false
	return &unsealed, err
}

func (p noHint) FastReject(ctx *PlanContext, t *Task) bool {
	fr, ok := p.Partitioner.(FastRejecter)
	return ok && fr.FastReject(ctx, t)
}

// planOnly shows the scheduler nothing but Name and Plan: with FastRejecter
// hidden, neither the demand bound nor the ñ_min fast-reject runs and every
// reject is the full test's.
type planOnly struct{ Partitioner }

func equivClusters(t *testing.T, n int, hetero bool) (*cluster.Cluster, *cluster.Cluster) {
	t.Helper()
	mk := func() *cluster.Cluster {
		if !hetero {
			cl, err := cluster.New(n, baseline)
			if err != nil {
				t.Fatal(err)
			}
			return cl
		}
		costs := make([]dlt.NodeCost, n)
		for i := range costs {
			costs[i] = dlt.NodeCost{
				Cms: 0.6 + 0.05*float64(i%5),
				Cps: 70 + 9*float64((i*7)%13),
			}
		}
		cl, err := cluster.NewHetero(costs)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	return mk(), mk()
}

func planEqual(a, b *Plan) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return slices.Equal(a.Nodes, b.Nodes) &&
		slices.Equal(a.Starts, b.Starts) &&
		slices.Equal(a.Release, b.Release) &&
		slices.Equal(a.Alphas, b.Alphas) &&
		a.Est == b.Est &&
		a.ReservedIdle == b.ReservedIdle &&
		a.SimultaneousStart == b.SimultaneousStart &&
		a.Rounds == b.Rounds
}

func errEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// equivDrive runs the paired stream. Task generation deliberately mixes
// three regimes: clearly feasible tasks, tasks whose deadline is below the
// bare transmission time (the γ ≤ 0 fast-reject), and tasks that are
// hopeless only because the committed queue occupies the cluster (the
// order-statistic r_k fast-reject) — plus node drain/fail/restore and
// fleet growth, which force full view resyncs between incremental ones.
func equivDrive(t *testing.T, pol Policy, part Partitioner, hetero bool, seed uint64, tasks int) {
	t.Helper()
	const n = 12
	cla, clb := equivClusters(t, n, hetero)
	a := NewScheduler(cla, pol, part)
	b := newRefScheduler(clb, pol, part)

	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	now := 0.0
	states := []cluster.NodeState{cluster.NodeUp, cluster.NodeDraining, cluster.NodeDown}
	for i := 0; i < tasks; i++ {
		now += rng.ExpFloat64() * 500
		if i > 0 && i%25 == 0 {
			id := rng.IntN(a.Cluster().N())
			st := states[rng.IntN(len(states))]
			da, ea := a.SetNodeState(id, st, now)
			db, eb := b.SetNodeState(id, st, now)
			if !errEqual(ea, eb) {
				t.Fatalf("step %d: SetNodeState errors diverge: %v vs %v", i, ea, eb)
			}
			if len(da) != len(db) {
				t.Fatalf("step %d: displaced %d vs %d tasks", i, len(da), len(db))
			}
			for j := range da {
				if da[j].ID != db[j].ID {
					t.Fatalf("step %d: displaced[%d] = %d vs %d", i, j, da[j].ID, db[j].ID)
				}
			}
		}
		if i > 0 && i%80 == 0 {
			nc := dlt.NodeCost{Cms: 0.8, Cps: 95}
			ida, ea := a.AddNode(nc, now)
			idb, eb := b.AddNode(nc, now)
			if !errEqual(ea, eb) || ida != idb {
				t.Fatalf("step %d: AddNode diverges: (%d,%v) vs (%d,%v)", i, ida, ea, idb, eb)
			}
		}

		sigma := 1 + 350*rng.Float64()
		var d float64
		switch rng.IntN(4) {
		case 0: // hopeless by transmission time alone (γ ≤ 0 bound)
			d = sigma * baseline.Cms * (0.2 + 0.7*rng.Float64())
		case 1: // tight: hopeless iff the committed queue is in the way
			d = baseline.ExecTime(sigma, n) * (0.9 + 0.3*rng.Float64())
		default: // generous
			d = 1500 + 6000*rng.Float64()
		}
		if d <= 0 {
			d = 1
		}
		task := &Task{ID: int64(i + 1), Arrival: now, Sigma: sigma, RelDeadline: d}
		if rng.IntN(6) > 0 {
			task.UserN = rng.IntN(a.Cluster().N() + 1) // 0 occasionally: clean reject path
		}
		ta, tb := *task, *task

		oka, ea := a.Submit(&ta, now)
		okb, eb := b.Submit(&tb, now)
		if oka != okb || !errEqual(ea, eb) {
			t.Fatalf("step %d (task %+v): Submit diverges: (%v,%v) vs (%v,%v)", i, task, oka, ea, okb, eb)
		}
		if !planEqual(a.PlanFor(task.ID), b.PlanFor(task.ID)) {
			t.Fatalf("step %d: plans diverge for task %d:\n a=%+v\n b=%+v",
				i, task.ID, a.PlanFor(task.ID), b.PlanFor(task.ID))
		}
		if sa, sb := a.Stats(), b.Stats(); sa != sb {
			t.Fatalf("step %d: stats diverge: %+v vs %+v", i, sa, sb)
		}

		pa, ea := a.CommitDue(now)
		pb, eb := b.CommitDue(now)
		if !errEqual(ea, eb) || len(pa) != len(pb) {
			t.Fatalf("step %d: CommitDue diverges: (%d,%v) vs (%d,%v)", i, len(pa), ea, len(pb), eb)
		}
		for j := range pa {
			if pa[j].Task.ID != pb[j].Task.ID || !planEqual(pa[j], pb[j]) {
				t.Fatalf("step %d: committed plan %d diverges:\n a=%+v\n b=%+v", i, j, pa[j], pb[j])
			}
		}
	}

	// Drain both queues and require identical commit tails.
	for a.Stats().QueueLen > 0 || b.Stats().QueueLen > 0 {
		ata, oka := a.NextCommit()
		atb, okb := b.NextCommit()
		if oka != okb || (oka && ata != atb) {
			t.Fatalf("drain: NextCommit diverges: (%v,%v) vs (%v,%v)", ata, oka, atb, okb)
		}
		if !oka {
			t.Fatalf("stuck queues: %d vs %d", a.Stats().QueueLen, b.Stats().QueueLen)
		}
		now = math.Max(now, ata)
		pa, ea := a.CommitDue(now)
		pb, eb := b.CommitDue(now)
		if !errEqual(ea, eb) || len(pa) != len(pb) {
			t.Fatalf("drain: CommitDue diverges: (%d,%v) vs (%d,%v)", len(pa), ea, len(pb), eb)
		}
		for j := range pa {
			if pa[j].Task.ID != pb[j].Task.ID || !planEqual(pa[j], pb[j]) {
				t.Fatalf("drain: committed plan %d diverges", j)
			}
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("final stats diverge: %+v vs %+v", sa, sb)
	}
	if sa := a.Stats(); sa.Accepts == 0 || sa.Rejects == 0 {
		t.Fatalf("degenerate stream (accepts=%d rejects=%d): wanted both paths exercised", sa.Accepts, sa.Rejects)
	}
	_, reused := a.PlanCounts()
	if _, refReused := b.PlanCounts(); reused == 0 || refReused != 0 {
		t.Fatalf("reused %d plans (reference %d): wanted plans kept on the production side only", reused, refReused)
	}
	if b.plans == 0 {
		t.Fatal("the reference planned nothing on a fresh view")
	}
}

func TestSchedulerIndexedEquivalence(t *testing.T) {
	parts := []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}
	for _, hetero := range []bool{false, true} {
		for _, pol := range []Policy{EDF, FIFO} {
			for _, part := range parts {
				name := fmt.Sprintf("%s/%s/hetero=%v", part.Name(), pol, hetero)
				t.Run(name, func(t *testing.T) {
					equivDrive(t, pol, part, hetero, 1000+uint64(len(name)), 400)
				})
			}
		}
	}
}

// TestClockSteppingBackMatchesReference drives a production scheduler the
// way a service's live road does — commit what is due, then admit the task
// that arrived now — on a clock that now and then steps back, against the
// reference scheduler that resyncs its view and replans every task on every
// test. The decisions, plans and counters stay identical; what the step
// costs is the kept prefix: a test at an instant before the last accepted
// one keeps no prior plan and replans the whole queue.
func TestClockSteppingBackMatchesReference(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		for _, pol := range []Policy{EDF, FIFO} {
			const n = 12
			cla, clb := equivClusters(t, n, hetero)
			a := NewScheduler(cla, pol, IITDLT{})
			b := newRefScheduler(clb, pol, IITDLT{})

			rng := rand.New(rand.NewPCG(5, uint64(len(pol.String()))))
			now, accepted, steps := 0.0, false, 0
			for i := 0; i < 600; i++ {
				back := i > 0 && rng.IntN(5) == 0
				if back {
					now = math.Max(0, now-800*rng.Float64())
				} else {
					now += rng.ExpFloat64() * 400
				}
				pa, ea := a.CommitDue(now)
				pb, eb := b.CommitDue(now)
				if !errEqual(ea, eb) || len(pa) != len(pb) {
					t.Fatalf("hetero=%v %s step %d: CommitDue diverges: (%d,%v) vs (%d,%v)", hetero, pol, i, len(pa), ea, len(pb), eb)
				}
				sigma := 20 + 300*rng.Float64()
				task := Task{ID: int64(i + 1), Arrival: now, Sigma: sigma, RelDeadline: 800 + 6000*rng.Float64()}
				ta, tb := task, task
				_, reusedBefore := a.PlanCounts()
				queued := a.QueueLen()
				pla, ea := a.Admit(&ta, now)
				plb, eb := b.Admit(&tb, now)
				if !errEqual(ea, eb) || !planEqual(pla, plb) {
					t.Fatalf("hetero=%v %s step %d: Admit diverges: %+v (%v) vs %+v (%v)", hetero, pol, i, pla, ea, plb, eb)
				}
				if sa, sb := a.Stats(), b.Stats(); sa != sb {
					t.Fatalf("hetero=%v %s step %d: stats diverge: %+v vs %+v", hetero, pol, i, sa, sb)
				}
				if back && accepted && queued > 0 {
					steps++
					if _, reused := a.PlanCounts(); reused != reusedBefore {
						t.Fatalf("hetero=%v %s step %d: kept %d prior plans behind a clock that stepped back", hetero, pol, i, reused-reusedBefore)
					}
				}
				accepted = pla != nil
			}
			if st := a.Stats(); st.Accepts == 0 || st.Rejects == 0 || steps < 20 {
				t.Fatalf("hetero=%v %s: degenerate stream: %+v, %d steps back behind an accept", hetero, pol, st, steps)
			}
		}
	}
}

// TestFastRejectSoundness is the direct property: whenever FastReject
// fires against a committed state, the full admission path must reject the
// same task — Plan returns ErrInfeasible, or the returned plan's estimate
// fails the scheduler's deadline check (UserSplit leaves that check to the
// scheduler). (The converse — FastReject may miss hopeless tasks — is
// fine; soundness is what keeps decisions identical.)
func TestFastRejectSoundness(t *testing.T) {
	parts := []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}
	rng := rand.New(rand.NewPCG(7, 77))
	for _, hetero := range []bool{false, true} {
		for trial := 0; trial < 600; trial++ {
			n := 2 + rng.IntN(14)
			cla, _ := equivClusters(t, n, hetero)
			avail := make([]float64, n)
			for i := range avail {
				avail[i] = rng.Float64() * 8000
			}
			view := NewAvailView(avail)
			ctx := PlanContext{P: cla.Params(), N: n, Now: rng.Float64() * 2000, View: view, Costs: cla.Costs()}
			task := &Task{
				ID:          1,
				Arrival:     ctx.Now * rng.Float64(),
				Sigma:       1 + 400*rng.Float64(),
				RelDeadline: 10 + 7000*rng.Float64(),
				UserN:       rng.IntN(n + 1),
			}
			for _, part := range parts {
				fr := part.(FastRejecter)
				if !fr.FastReject(&ctx, task) {
					continue
				}
				pl, err := part.Plan(&ctx, task)
				if err == ErrInfeasible {
					continue
				}
				if err != nil {
					t.Fatalf("%s hetero=%v: FastReject fired but Plan hard-errored: %v (task %+v)",
						part.Name(), hetero, err, task)
				}
				absD := task.AbsDeadline()
				if pl.Est > absD+deadlineEps(absD) {
					continue // the scheduler's deadline check rejects it
				}
				t.Fatalf("%s hetero=%v: FastReject fired but the full path admits (Est=%v absD=%v, task %+v, avail %v, now %v)",
					part.Name(), hetero, pl.Est, absD, task, avail, ctx.Now)
			}
		}
	}
}
