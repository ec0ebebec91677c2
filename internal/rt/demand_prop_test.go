package rt_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/multiround"
	"rtdls/internal/rt"
)

// This file holds the soundness property of the processor-demand bound over
// every partitioner of the tree, multiround included — hence the external
// test package. The reference is the scheduler with the shortcuts a
// partitioner opts into off: its partitioner shows no FastReject, so no
// ñ_min fast-reject and no demand bound (what the in-package suites get
// from planOnly).

type reference struct{ part rt.Partitioner }

func (r reference) Name() string { return r.part.Name() }

func (r reference) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	return r.part.Plan(ctx, t)
}

var propParams = dlt.Params{Cms: 1, Cps: 100}

func propCluster(t *testing.T, n int, hetero bool) *cluster.Cluster {
	t.Helper()
	if !hetero {
		cl, err := cluster.New(n, propParams)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	costs := make([]dlt.NodeCost, n)
	for i := range costs {
		costs[i] = dlt.NodeCost{Cms: 0.6 + 0.05*float64(i%5), Cps: 70 + 9*float64((i*7)%13)}
	}
	cl, err := cluster.NewHetero(costs)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func samePlan(a, b *rt.Plan) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Task.ID == b.Task.ID && slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Starts, b.Starts) &&
		slices.Equal(a.Release, b.Release) && slices.Equal(a.Alphas, b.Alphas) &&
		a.Est == b.Est && a.ReservedIdle == b.ReservedIdle && a.Rounds == b.Rounds
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// driveSaturated submits one saturated stream — arrivals at `load` times
// what the fleet can serve, deadlines from tight to thirty execution times
// out, so the queue fills and most arrivals are one too many — to a
// production scheduler and to the reference, and returns how many rejects
// the demand bound decided. Every one of them must be a reject of the
// reference; everything else — decisions, hard errors, plans, commits,
// displacements, stats — must be bit-identical whether the bound spoke or
// not. With churn, two nodes drain, fail and come back every few arrivals,
// so the committed-capacity summary is rebuilt under a mask. One request in
// eight asks for more nodes than the fleet has — User-Split's hard error,
// which the bound must leave alone; the others for no more than are live at
// any time, so that no such task ever waits (with one in the queue the
// ñ_min fast-reject already answers for the reference's hard error).
func driveSaturated(t *testing.T, part rt.Partitioner, pol rt.Policy, hetero, churn bool, seed uint64) (demandRejects int64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 22))
	n := 3 + rng.IntN(10)
	load := 2 + 18*rng.Float64()
	a := rt.NewScheduler(propCluster(t, n, hetero), pol, part)
	ref := rt.NewScheduler(propCluster(t, n, hetero), pol, reference{part})
	states := []cluster.NodeState{cluster.NodeUp, cluster.NodeDraining, cluster.NodeDown}
	now := 0.0
	for i := 1; i <= 500; i++ {
		now += rng.ExpFloat64() * 200 * propParams.Cps / (float64(n) * load)
		if churn && i%20 == 0 {
			id, st := rng.IntN(2), states[rng.IntN(len(states))]
			da, ea := a.SetNodeState(id, st, now)
			db, eb := ref.SetNodeState(id, st, now)
			if !sameErr(ea, eb) || len(da) != len(db) {
				t.Fatalf("step %d: SetNodeState(%d,%v) diverges: (%d,%v) vs (%d,%v)", i, id, st, len(da), ea, len(db), eb)
			}
			for j := range da {
				if da[j].ID != db[j].ID {
					t.Fatalf("step %d: displaced[%d] = %d vs %d", i, j, da[j].ID, db[j].ID)
				}
			}
		}
		pa, ea := a.CommitDue(now)
		pb, eb := ref.CommitDue(now)
		if !sameErr(ea, eb) || len(pa) != len(pb) {
			t.Fatalf("step %d: CommitDue diverges: (%d,%v) vs (%d,%v)", i, len(pa), ea, len(pb), eb)
		}
		for j := range pa {
			if !samePlan(pa[j], pb[j]) {
				t.Fatalf("step %d: committed plan %d diverges:\n got  %+v\n want %+v", i, j, pa[j], pb[j])
			}
		}
		sigma := 1 + 400*rng.Float64()
		task := rt.Task{ID: int64(i), Arrival: now, Sigma: sigma, UserN: rng.IntN(n - 1),
			RelDeadline: propParams.ExecTime(sigma, n) * (0.8 + 30*rng.Float64()*rng.Float64())}
		if rng.IntN(8) == 0 {
			task.UserN = n + 1
		}
		ta, tb := task, task
		before := a.DemandRejects()
		oka, ea := a.Submit(&ta, now)
		okb, eb := ref.Submit(&tb, now)
		if a.DemandRejects() != before && (okb || eb != nil) {
			t.Fatalf("step %d: the demand bound rejected %+v, the reference says (%v,%v)", i, task, okb, eb)
		}
		if oka != okb || !sameErr(ea, eb) {
			t.Fatalf("step %d (task %+v): decisions diverge: (%v,%v) vs (%v,%v)", i, task, oka, ea, okb, eb)
		}
		if !samePlan(a.PlanFor(task.ID), ref.PlanFor(task.ID)) {
			t.Fatalf("step %d: plans of task %d diverge:\n got  %+v\n want %+v", i, task.ID, a.PlanFor(task.ID), ref.PlanFor(task.ID))
		}
		if sa, sb := a.Stats(), ref.Stats(); sa != sb {
			t.Fatalf("step %d: stats diverge: %+v vs %+v", i, sa, sb)
		}
	}
	if st := a.Stats(); st.Accepts == 0 || st.Rejects < st.Accepts {
		t.Fatalf("stream not saturated: %+v", st)
	}
	if ref.DemandRejects() != 0 {
		t.Fatalf("the reference counted %d demand rejects", ref.DemandRejects())
	}
	return a.DemandRejects()
}

func TestDemandBoundSoundness(t *testing.T) {
	mr, err := multiround.New(4)
	if err != nil {
		t.Fatal(err)
	}
	parts := []rt.Partitioner{rt.IITDLT{}, rt.OPR{}, rt.OPR{AllNodes: true}, rt.UserSplit{}, mr}
	for _, part := range parts {
		for _, pol := range []rt.Policy{rt.EDF, rt.FIFO} {
			for _, hetero := range []bool{false, true} {
				for _, churn := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/hetero=%v/churn=%v", part.Name(), pol, hetero, churn)
					t.Run(name, func(t *testing.T) {
						var hits int64
						for seed := uint64(1); seed <= 6; seed++ {
							hits += driveSaturated(t, part, pol, hetero, churn, seed*977+uint64(len(name)))
						}
						// The streams must reach the bound, not only its abstentions.
						if hits == 0 {
							t.Fatalf("the demand bound decided no reject in 3000 saturated arrivals")
						}
					})
				}
			}
		}
	}
}
