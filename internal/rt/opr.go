package rt

import (
	"rtdls/internal/dlt"
)

// OPR is the baseline partitioner from the authors' RTAS'07 paper [22]:
// the Optimal Partitioning Rule for simultaneously allocated homogeneous
// nodes, *without* IIT utilisation. A task assigned n nodes cannot start
// until all n are free (time r_n); nodes released earlier are held idle
// until then — the Inserted Idle Times this paper eliminates. Its node
// count uses the same ñ_min(t) rule as IITDLT (the formulas coincide), so
// comparing the two isolates the value of utilising IITs.
//
// With AllNodes false this is OPR-MN (minimum-node assignment, the
// strongest baseline of [22]); with AllNodes true it is OPR-AN (always run
// on the whole cluster — no IITs by construction, but "rarely adopted in
// real-life clusters due to obvious drawbacks").
type OPR struct {
	AllNodes bool
}

// Name implements Partitioner.
func (o OPR) Name() string {
	if o.AllNodes {
		return "opr-an"
	}
	return "opr-mn"
}

// FastReject implements FastRejecter. OPR-MN shares the ñ_min(t) bound
// with IITDLT; OPR-AN always waits for the whole cluster, so the provable
// lower bound is anchored at the N-th (last) release time.
func (o OPR) FastReject(ctx *PlanContext, t *Task) bool {
	if !o.AllNodes {
		return ctx.FastRejectMinNodes(t)
	}
	return ctx.ProvablyLate(t, ctx.N)
}

// Plan implements Partitioner.
func (o OPR) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if ctx.Prior != nil {
		if o.AllNodes {
			// OPR-AN always takes the whole cluster, whatever the slack.
			return ctx.Prior, nil
		}
		return ctx.KeepPriorMinNodes(t)
	}
	if o.AllNodes {
		return o.plan(ctx, t)
	}
	return ctx.SealMinNodes(o.plan(ctx, t))
}

// plan is the fresh-plan half of Plan.
func (o OPR) plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if cm := ctx.heteroCosts(); cm != nil {
		return planHeteroOPR(o, cm, ctx, t)
	}
	absD := t.AbsDeadline()
	n0 := ctx.N
	if !o.AllNodes {
		slack := absD - ctx.startFloor(t)
		var ok bool
		n0, ok = dlt.MinNodesBound(ctx.P, t.Sigma, slack)
		if !ok || n0 > ctx.N {
			return nil, ErrInfeasible
		}
	}
	for n := n0; n <= ctx.N; n++ {
		ids, starts := clampedStarts(ctx, t, n)
		rn := starts[n-1]
		est := rn + ctx.P.ExecTime(t.Sigma, n)
		if est > absD+deadlineEps(absD) {
			// Like IITDLT, expand beyond ñ_min(t) when waiting for busy
			// nodes pushed the completion past the deadline — but OPR must
			// buy the speed-up with E(σ,n), never with the waiting time
			// itself.
			continue
		}
		// The task occupies each node from that node's own release (the
		// reservation that wastes the IIT) but only executes from rn, when
		// all n nodes are free simultaneously.
		reserved := 0.0
		for _, s := range starts {
			reserved += rn - s
		}
		return &Plan{
			Task:              t,
			Nodes:             ids,
			Starts:            starts,
			Release:           uniform(n, est),
			Alphas:            ctx.P.Alphas(n),
			Est:               est,
			ReservedIdle:      reserved,
			SimultaneousStart: true,
			Rounds:            1,
		}, nil
	}
	return nil, ErrInfeasible
}
