package multiround

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

func samePlan(a, b *rt.Plan) bool {
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Starts, b.Starts) &&
		slices.Equal(a.Release, b.Release) && slices.Equal(a.Alphas, b.Alphas) &&
		a.Est == b.Est && a.Rounds == b.Rounds
}

// TestKeepSoundness is the scheduler's keep rule for the multi-round
// partitioner, seen from outside rt: whenever an rt.Scheduler keeps a
// waiting plan at a later instant (its PlanCounts reused count moves), a
// fresh Plan against the same view is equal to it field for field, bit
// for bit. Unlike the single-round partitioners, whose estimate can never
// undercut the ñ_min(t) bound at a plan's own first start, overlapped
// installments can — so on the homogeneous cluster (where the bound is
// tight) the test also requires a kept plan of more than one round whose
// bound at its first start's slack exceeds its node count: one the
// scheduler keeps past its seal, by rechecking the bound.
func TestKeepSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 55))
	for _, hetero := range []bool{false, true} {
		for _, rounds := range []int{1, 4, 8} {
			p, err := New(rounds)
			if err != nil {
				t.Fatal(err)
			}
			kept, rechecked := 0, 0
			for trial := 0; trial < 3000; trial++ {
				n := 2 + rng.IntN(12)
				cl := mrCluster(t, n, hetero)
				busyFrom := 500 + rng.Float64()*3000
				for id := 0; id < n; id++ {
					if err := cl.Commit([]int{id}, []float64{0}, []float64{busyFrom + rng.Float64()*rng.Float64()*4000}, 0); err != nil {
						t.Fatal(err)
					}
				}
				s := rt.NewScheduler(cl, rt.EDF, p)
				now0 := rng.Float64() * 1000
				task := &rt.Task{ID: 1, Arrival: now0 * rng.Float64(),
					Sigma: 1 + 400*rng.Float64(), RelDeadline: 1000 + 9000*rng.Float64()}
				if ok, err := s.Submit(task, now0); err != nil || !ok {
					continue
				}
				// Later arrivals ordered behind the task, at instants up to
				// its plan's first start: inside the guards.
				first := s.PlanFor(1).FirstStart()
				for i, f := range []float64{0.3, 0.7, 0.95, 1} {
					now := now0 + f*(first-now0)
					pl := s.PlanFor(1)
					_, before := s.PlanCounts()
					late := &rt.Task{ID: int64(i + 2), Arrival: now, Sigma: 1, RelDeadline: 1e7}
					if _, err := s.Submit(late, now); err != nil {
						t.Fatal(err)
					}
					if _, after := s.PlanCounts(); after == before {
						continue
					}
					kept++
					ctx := rt.PlanContext{P: cl.Params(), N: n, Now: now, View: rt.NewAvailView(cl.AvailTimes()), Costs: cl.Costs()}
					fresh, err := p.Plan(&ctx, task)
					if s.PlanFor(1) != pl || err != nil || !samePlan(fresh, pl) {
						t.Fatalf("rounds=%d hetero=%v: kept at now=%v but a fresh Plan gives (%+v, %v), want %+v\n(task %+v, avail %v)",
							rounds, hetero, now, fresh, err, pl, task, cl.AvailTimes())
					}
					if hetero {
						continue
					}
					slack := task.AbsDeadline() - math.Max(pl.FirstStart(), task.Arrival)
					if n0, ok := dlt.MinNodesBound(cl.Params(), task.Sigma, slack); !ok || n0 > len(pl.Nodes) {
						rechecked++
					}
				}
			}
			t.Logf("rounds=%d hetero=%v: %d plans kept, %d of them past a bound that exceeds them at their first start", rounds, hetero, kept, rechecked)
			if kept == 0 || (rounds > 1 && !hetero && rechecked == 0) {
				t.Fatalf("rounds=%d hetero=%v: %d plans kept, %d past a bound that exceeds them at their first start — the property was not exercised",
					rounds, hetero, kept, rechecked)
			}
		}
	}
}

// TestPlanReuseDecisionEquivalence drives a multiround scheduler that keeps
// plans across arrivals against the full-replan reference over identical
// bursty streams — deep enough that most arrivals find a waiting queue —
// and requires identical decisions, plans, commits and stats.
func TestPlanReuseDecisionEquivalence(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		for _, rounds := range []int{1, 4} {
			p, err := New(rounds)
			if err != nil {
				t.Fatal(err)
			}
			const n = 10
			a := rt.NewScheduler(mrCluster(t, n, hetero), rt.EDF, p)
			ref := rt.NewScheduler(mrCluster(t, n, hetero), rt.EDF, p)
			rng := rand.New(rand.NewPCG(uint64(rounds), 77))
			now := 0.0
			for i := 0; i < 600; i++ {
				now += rng.ExpFloat64() * 250
				sigma := 1 + 300*rng.Float64()
				d := 1500 + 9000*rng.Float64()
				if rng.IntN(5) == 0 {
					d = baseline.ExecTime(sigma, n) * (0.9 + 0.5*rng.Float64())
				}
				ta := rt.Task{ID: int64(i + 1), Arrival: now, Sigma: sigma, RelDeadline: d}
				tb := ta
				pa, ea := a.CommitDue(now)
				pb, eb := ref.CommitDue(now)
				if ea != nil || eb != nil || len(pa) != len(pb) {
					t.Fatalf("hetero=%v rounds=%d step %d: CommitDue diverges: (%d,%v) vs (%d,%v)",
						hetero, rounds, i, len(pa), ea, len(pb), eb)
				}
				for j := range pa {
					if pa[j].Task.ID != pb[j].Task.ID || !samePlan(pa[j], pb[j]) {
						t.Fatalf("hetero=%v rounds=%d step %d: committed plan %d diverges:\n got  %+v\n want %+v",
							hetero, rounds, i, j, pa[j], pb[j])
					}
				}
				// A same-state transition moves the reference's cluster
				// Version, so it keeps no plan, sealed or not.
				if err := ref.Cluster().SetNodeState(0, ref.Cluster().NodeStateList()[0]); err != nil {
					t.Fatal(err)
				}
				oka, ea := a.Submit(&ta, now)
				okb, eb := ref.Submit(&tb, now)
				if oka != okb || ea != nil || eb != nil {
					t.Fatalf("hetero=%v rounds=%d step %d: Submit diverges: (%v,%v) vs (%v,%v)",
						hetero, rounds, i, oka, ea, okb, eb)
				}
				if oka && !samePlan(a.PlanFor(ta.ID), ref.PlanFor(tb.ID)) {
					t.Fatalf("hetero=%v rounds=%d step %d: accepted plans diverge", hetero, rounds, i)
				}
			}
			if sa, sb := a.Stats(), ref.Stats(); sa != sb || sa.Accepts == 0 || sa.Rejects == 0 {
				t.Fatalf("hetero=%v rounds=%d: stats %+v vs %+v (want equal, both outcomes exercised)", hetero, rounds, sa, sb)
			}
			_, reused := a.PlanCounts()
			if _, refReused := ref.PlanCounts(); reused == 0 || refReused != 0 {
				t.Fatalf("hetero=%v rounds=%d: reused %d plans (reference %d): want reuse on the production side only",
					hetero, rounds, reused, refReused)
			}
		}
	}
}
