package multiround

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/rt"
)

// noHint hides rt.PlanContext.Prior from the wrapped partitioner: the
// full-replan reference the plan-reuse tests compare against.
type noHint struct{ Partitioner }

func (p noHint) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	c := *ctx
	c.Prior = nil
	return p.Partitioner.Plan(&c, t)
}

func samePlan(a, b *rt.Plan) bool {
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Starts, b.Starts) &&
		slices.Equal(a.Release, b.Release) && slices.Equal(a.Alphas, b.Alphas) &&
		a.Est == b.Est && a.Rounds == b.Rounds
}

// TestPriorSoundness is the reuse property for the multi-round partitioner:
// whenever Plan returns the offered Prior, a hint-free Plan against the
// same view is equal to it field for field, bit for bit. Unlike the
// single-round partitioners, whose estimate can never undercut the
// ñ_min(t) bound at a plan's own first start, overlapped installments can —
// so on the homogeneous cluster (where the bound is tight) the test also
// requires that it does decline some offers.
func TestPriorSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 55))
	for _, hetero := range []bool{false, true} {
		for _, rounds := range []int{1, 4, 8} {
			p, err := New(rounds)
			if err != nil {
				t.Fatal(err)
			}
			kept, declined := 0, 0
			for trial := 0; trial < 3000; trial++ {
				n := 2 + rng.IntN(12)
				cl := mrCluster(t, n, hetero)
				avail := make([]float64, n)
				busyFrom := 500 + rng.Float64()*3000
				for i := range avail {
					avail[i] = busyFrom + rng.Float64()*rng.Float64()*4000
				}
				now0 := rng.Float64() * 1000
				ctx := rt.PlanContext{P: cl.Params(), N: n, Now: now0, View: rt.NewAvailView(avail), Costs: cl.Costs()}
				task := &rt.Task{ID: 1, Arrival: now0 * rng.Float64(),
					Sigma: 1 + 400*rng.Float64(), RelDeadline: 1000 + 9000*rng.Float64()}
				prior, err := p.Plan(&ctx, task)
				if err != nil {
					continue
				}
				// Later instants up to the plan's first start: the scheduler
				// offers Prior only while that is not before the start floor.
				for _, f := range []float64{0, 0.3, 0.7, 0.95, 1} {
					ctx.Now = now0 + f*(prior.FirstStart()-now0)
					if prior.FirstStart() < math.Max(ctx.Now, task.Arrival) {
						continue
					}
					ctx.Prior = prior
					got, err := p.Plan(&ctx, task)
					ctx.Prior = nil
					if err != nil || got != prior {
						declined++
						continue
					}
					kept++
					fresh, err := p.Plan(&ctx, task)
					if err != nil || !samePlan(fresh, prior) {
						t.Fatalf("rounds=%d hetero=%v: Prior kept at now=%v but a fresh Plan gives (%+v, %v), want %+v\n(task %+v, avail %v)",
							rounds, hetero, ctx.Now, fresh, err, prior, task, avail)
					}
				}
			}
			if kept == 0 || (rounds > 1 && !hetero && declined == 0) {
				t.Fatalf("rounds=%d hetero=%v: %d offers kept, %d declined — the property was not exercised",
					rounds, hetero, kept, declined)
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
			ref := rt.NewScheduler(mrCluster(t, n, hetero), rt.EDF, noHint{p})
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
