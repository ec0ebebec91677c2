package rt

import (
	"fmt"

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

func (OPR) anchored() {} // see PlanMinNodes

// Plan implements Partitioner.
func (o OPR) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if !o.AllNodes {
		return ctx.PlanMinNodes(t, o)
	}
	// OPR-AN always takes the whole cluster, whatever the slack.
	absD := t.AbsDeadline()
	return sealFixed(ctx.search(t, ctx.N, ctx.N, absD+deadlineEps(absD), o))
}

// Estimate implements Estimator: r_n + E(σ,n), exact because every node
// starts at r_n and the partition equalises the finish times. Like IITDLT
// the search expands beyond ñ_min(t) when waiting for busy nodes pushed the
// completion past the deadline — but OPR must buy the speed-up with E(σ,n),
// never with the waiting time itself.
func (o OPR) Estimate(c *Candidate) (float64, error) {
	n := len(c.Starts)
	if c.Costs == nil {
		return c.Starts[n-1] + c.model.NoIITExecTimeFor(c.P, c.Task.Sigma, n), nil
	}
	e, err := dlt.HeteroExecTime(c.Costs, c.Task.Sigma)
	if err != nil {
		return 0, fmt.Errorf("rt: %s: heterogeneous execution time: %w", o.Name(), err)
	}
	return c.Starts[n-1] + e, nil
}

// Finish implements Estimator. The task occupies each node from that
// node's own release (the reservation that wastes the IIT) but only
// executes from r_n, when all n nodes are free simultaneously.
func (o OPR) Finish(c *Candidate, pl *Plan) error {
	rn := c.Starts[len(c.Starts)-1]
	for i, s := range c.Starts {
		pl.Release[i] = pl.Est
		pl.ReservedIdle += rn - s
	}
	pl.SimultaneousStart = true
	if c.Costs == nil {
		c.P.AlphasInto(pl.Alphas)
		return nil
	}
	if err := dlt.HeteroAlphasInto(pl.Alphas, c.Costs); err != nil {
		return fmt.Errorf("rt: %s: heterogeneous partition: %w", o.Name(), err)
	}
	return nil
}
