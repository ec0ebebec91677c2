package rt

import (
	"fmt"

	"rtdls/internal/dlt"
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
func (UserSplit) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	// The node count is the user's request, whatever the slack.
	if ctx.Prior != nil {
		return ctx.Prior, nil
	}
	if cm := ctx.heteroCosts(); cm != nil {
		return planHeteroUserSplit(cm, ctx, t)
	}
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
	ids, starts := clampedStarts(ctx, t, k)
	d, err := dlt.UserSplitDispatch(ctx.P, t.Sigma, starts)
	if err != nil {
		return nil, fmt.Errorf("rt: user-split: %w", err)
	}
	release := make([]float64, k)
	copy(release, d.Finish)
	return &Plan{
		Task:    t,
		Nodes:   ids,
		Starts:  starts,
		Release: release,
		Alphas:  dlt.EqualAlphas(k),
		Est:     d.Completion,
		Rounds:  1,
	}, nil
}
