package rt

import (
	"fmt"
	"math"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
)

// IITDLT is the paper's DLT-based partitioner: it utilises Inserted Idle
// Times by starting a task on each processor as soon as that processor is
// released, partitioning the load via the heterogeneous-model analysis of
// Sec. 4.1.1 and assigning the task ñ_min nodes.
//
// Following the Fig. 2 pseudocode, ñ_min is evaluated at the current test
// time t ("n ← ñ_min(t)"), i.e. with slack A+D−t, *before* the start times
// are known; the safety net is the explicit admission check of the Eq. 6
// completion estimate Ê + r_n against the absolute deadline, which the
// scheduler performs on the plan returned here. This is where utilising
// IITs pays: when a task must wait for its later nodes, the early nodes
// compute during the wait, so Ê can undercut the no-IIT execution time E by
// far more than the ñ_min bound assumes — admitting tasks the OPR baseline
// must reject.
type IITDLT struct{}

// Name implements Partitioner.
func (IITDLT) Name() string { return "dlt-iit" }

// FastReject implements FastRejecter: the search starts at ñ_min(t), so a
// task is certainly rejected when the bound fails or the ñ_min earliest
// nodes are provably too late.
func (IITDLT) FastReject(ctx *PlanContext, t *Task) bool {
	return ctx.FastRejectMinNodes(t)
}

// Plan implements Partitioner.
func (IITDLT) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if ctx.Prior != nil {
		return ctx.KeepPriorMinNodes(t)
	}
	return ctx.SealMinNodes(planIIT(ctx, t))
}

// planIIT is the node search of IITDLT.Plan.
func planIIT(ctx *PlanContext, t *Task) (*Plan, error) {
	if cm := ctx.heteroCosts(); cm != nil {
		return planHeteroIIT(cm, ctx, t)
	}
	absD := t.AbsDeadline()
	slack := absD - ctx.startFloor(t)
	n0, ok := dlt.MinNodesBound(ctx.P, t.Sigma, slack)
	if !ok || n0 > ctx.N {
		// Even starting immediately the deadline cannot be met (γ ≤ 0 or
		// the whole cluster is too small).
		return nil, ErrInfeasible
	}
	for n := n0; n <= ctx.N; n++ {
		ids, starts := clampedStarts(ctx, t, n)
		m, err := core.New(ctx.P, t.Sigma, starts)
		if err != nil {
			return nil, fmt.Errorf("rt: dlt-iit: building heterogeneous model: %w", err)
		}
		est := m.EstCompletion()
		if est > absD+deadlineEps(absD) {
			// ñ_min(t) underestimates the requirement when the task must
			// wait for busy nodes; allocate more until the Eq. 6 estimate
			// meets the deadline.
			continue
		}
		// Admission is checked against the Theorem-4 estimate (Eq. 6), but
		// each node is released at its exact actual finish time: the linear
		// cost model makes the dispatch timeline fully deterministic, so
		// the head node knows precisely when every node frees up.
		d, err := m.Dispatch()
		if err != nil {
			return nil, fmt.Errorf("rt: dlt-iit: dispatching: %w", err)
		}
		release := make([]float64, n)
		for i := range release {
			release[i] = math.Max(d.Finish[i], starts[i])
		}
		return &Plan{
			Task:    t,
			Nodes:   ids,
			Starts:  starts,
			Release: release,
			Alphas:  m.Alphas(),
			Est:     est,
			Rounds:  1,
		}, nil
	}
	return nil, ErrInfeasible
}
