package multiround

import (
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/rt"
)

func samePlan(a, b *rt.Plan) bool {
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Starts, b.Starts) &&
		slices.Equal(a.Release, b.Release) && slices.Equal(a.Alphas, b.Alphas) &&
		a.Est == b.Est && a.Rounds == b.Rounds
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
				// Restoring an up node invalidates the reference's view, so
				// it keeps no plan, sealed or not.
				if _, err := ref.SetNodeState(0, cluster.NodeUp, now); err != nil {
					t.Fatal(err)
				}
				pla, ea := a.Admit(&ta, now)
				plb, eb := ref.Admit(&tb, now)
				if (pla != nil) != (plb != nil) || ea != nil || eb != nil {
					t.Fatalf("hetero=%v rounds=%d step %d: Admit diverges: (%v,%v) vs (%v,%v)",
						hetero, rounds, i, pla != nil, ea, plb != nil, eb)
				}
				if pla != nil && !samePlan(pla, plb) {
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
