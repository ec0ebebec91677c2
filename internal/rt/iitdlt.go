package rt

import "fmt"

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

func (IITDLT) anchored() {} // see PlanMinNodes

// Plan implements Partitioner.
func (p IITDLT) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	return ctx.PlanMinNodes(t, p)
}

// Estimate implements Estimator: the Eq. 6 estimate r_n + Ê of the
// heterogeneous model, which Theorem 4 proves an upper bound of the actual
// completion. The theorem needs a common Cms, so on a heterogeneous cluster
// — where the model is built over per-node coefficients — the estimate is
// the exactly simulated dispatch instead: the linear cost model makes that
// timeline deterministic, which keeps the hard real-time guarantee without
// a new theorem.
func (IITDLT) Estimate(c *Candidate) (float64, error) {
	m, err := c.Model()
	if err != nil {
		return 0, fmt.Errorf("rt: dlt-iit: building heterogeneous model: %w", err)
	}
	if !m.Hetero() {
		return m.EstCompletion(), nil
	}
	d, err := c.timeline()
	if err != nil {
		return 0, fmt.Errorf("rt: dlt-iit: dispatching: %w", err)
	}
	return d.Completion, nil
}

// Finish implements Estimator. Admission is checked against the estimate,
// but each node is released at its exact actual finish time.
func (IITDLT) Finish(c *Candidate, pl *Plan) error {
	if err := c.singleRound(pl); err != nil {
		return fmt.Errorf("rt: dlt-iit: dispatching: %w", err)
	}
	return nil
}
