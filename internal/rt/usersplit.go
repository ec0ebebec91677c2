package rt

import (
	"fmt"
	"math"
)

// UserSplit emulates the current practice at cluster facilities such as the
// U.S. CMS Tier-2 sites (Sec. 4.1.2): the user manually splits a task into
// n equal-sized subtasks, where n is the user-requested node count drawn
// uniformly from [Nmin, N] at submission time (Task.UserN). Subtasks start
// on each node as soon as it is released, so the method does utilise IITs —
// the comparison against IITDLT isolates the value of DLT-guided,
// deadline-adaptive partitioning.
type UserSplit struct{}

// Name implements Partitioner.
func (UserSplit) Name() string { return "user-split" }

// FastReject implements FastRejecter: the node count is the user's fixed
// request, so the lower bound is anchored at the k-th release time. A
// request exceeding the cluster is deliberately NOT fast-rejected — the
// full path reports it as a hard configuration error, not a clean reject,
// and the fast path must preserve that distinction.
func (UserSplit) FastReject(ctx *PlanContext, t *Task) bool {
	k := t.UserN
	if k < 1 {
		return true
	}
	if k > ctx.N {
		return false
	}
	return ctx.ProvablyLate(t, k)
}

// Plan implements Partitioner.
func (u UserSplit) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	// The node count is the user's request, whatever the slack.
	k := t.UserN
	if k < 1 {
		// No node count can meet the deadline even on an idle cluster
		// (Nmin > N), or the workload generator did not set a request.
		return nil, ErrInfeasible
	}
	if k > ctx.N {
		return nil, fmt.Errorf("rt: user-split: task %d requests %d nodes but the cluster has %d",
			t.ID, k, ctx.N)
	}
	// One candidate, returned whatever its estimate: the deadline check is
	// the scheduler's.
	return sealFixed(ctx.search(t, k, k, math.Inf(1), u))
}

// Estimate implements Estimator: the exact completion of n equal chunks
// dispatched in availability order (Sec. 4.1.2), each node's finish taken
// from the dispatch simulation at its own coefficients.
func (UserSplit) Estimate(c *Candidate) (float64, error) {
	alphas := c.Aux()
	for i := range alphas {
		alphas[i] = 1 / float64(len(alphas))
	}
	d, err := c.simulate(alphas)
	if err != nil {
		return 0, fmt.Errorf("rt: user-split: %w", err)
	}
	return d.Completion, nil
}

// Finish implements Estimator with the partition and the timeline Estimate
// left in the candidate.
func (UserSplit) Finish(c *Candidate, pl *Plan) error {
	copy(pl.Alphas, c.aux)
	copy(pl.Release, c.dispatch.Finish)
	return nil
}
