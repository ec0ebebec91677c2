package rt_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtdls/internal/dlt"
	"rtdls/internal/multiround"
	"rtdls/internal/rt"
)

// TestMultiroundKeepSoundness is the scheduler's keep rule for the
// multi-round partitioner, which only this external test package can
// import: whenever an rt.Scheduler keeps a
// waiting plan at a later instant (its PlanCounts reused count moves), a
// fresh Plan against the same view is equal to it field for field, bit
// for bit. Unlike the single-round partitioners, whose estimate can never
// undercut the ñ_min(t) bound at a plan's own first start, overlapped
// installments can — so on the homogeneous cluster (where the bound is
// tight) the test also requires a kept plan of more than one round whose
// bound at its first start's slack exceeds its node count: one the
// scheduler keeps past its seal, by rechecking the bound.
func TestMultiroundKeepSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 55))
	for _, hetero := range []bool{false, true} {
		for _, rounds := range []int{1, 4, 8} {
			p, err := multiround.New(rounds)
			if err != nil {
				t.Fatal(err)
			}
			kept, rechecked := 0, 0
			for trial := 0; trial < 3000; trial++ {
				n := 2 + rng.IntN(12)
				cl := propCluster(t, n, hetero)
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
					ctx := rt.PlanContext{P: cl.Params(), N: n, Now: now, View: rt.NewAvailView(cl.AvailInto(nil)), Costs: cl.Costs()}
					fresh, err := p.Plan(&ctx, task)
					if s.PlanFor(1) != pl || err != nil || !samePlan(fresh, pl) {
						t.Fatalf("rounds=%d hetero=%v: kept at now=%v but a fresh Plan gives (%+v, %v), want %+v\n(task %+v, avail %v)",
							rounds, hetero, now, fresh, err, pl, task, cl.AvailInto(nil))
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
