package rt

import "math"

// Plan is a tentative (or, once committed, final) resource assignment for
// one task: which nodes it uses, from when to when, how the load is split
// across them, and the completion estimate the admission decision was based
// on. Slices are parallel and ordered by node available time (the paper's
// P1…Pn ordering, which is also the transmission order). A plan the
// scheduler hands out (to an Observer, from Admit or CommitDue) is valid
// only until its next call: the node search's plans are pooled. Task is the
// record its caller passed in; a service frees that record once the task
// has committed, so it lives no longer than the plan.
type Plan struct {
	Task *Task

	Nodes  []int     // node ids, ordered by available time
	Starts []float64 // per node: when the node is occupied by this task
	// Release holds the per-node release times used for bookkeeping. For
	// the OPR baselines every entry equals Est; otherwise entry i is node
	// i's exact finish when Alphas is dispatched from Starts, so a
	// single-round plan's latest entry is its actual completion.
	Release []float64
	Alphas  []float64 // load fractions, αᵢ ≥ 0, Σαᵢ = 1

	// Est is the completion-time estimate used by the schedulability test:
	// r_n + Ê for DLT-IIT (Theorem 4 upper-bounds the actual completion by
	// it), r_n + E for OPR, and the exact C(σ,n) for User-Split.
	Est float64

	// ReservedIdle is the inserted idle time this assignment wastes by
	// holding nodes before the task can start on all of them — nonzero only
	// for the non-IIT-utilising OPR baselines (Σᵢ r_n − r_i).
	ReservedIdle float64

	// SimultaneousStart marks OPR-style plans whose execution begins only
	// when all nodes are free (at Rn): their actual completion equals Est
	// exactly, and simulating the staggered dispatch would wrongly credit
	// them with IIT utilisation.
	SimultaneousStart bool
	// fromBound marks a plan of PlanContext.PlanMinNodes, kept past its seal
	// while the ñ_min(t) bound fits it (PlanContext.keeps); pooled one the
	// pool may recycle. In SimultaneousStart's padding: 144 bytes, 28 a chunk.
	fromBound bool
	pooled    bool

	// Rounds is the number of dispatch rounds (1 for all single-round
	// partitioners; >1 for the multi-round extension).
	Rounds int

	// minSlack, when positive, is the plan's seal: a slack (absolute
	// deadline minus start floor) from which on a fresh Plan of the task,
	// under the scheduler's guards, is known to be this plan.
	// PlanContext.PlanMinNodes, sealMinNodes and sealFixed write it.
	minSlack float64
}

// sealedAt reports whether the seal covers the slack: the plan is kept.
func (p *Plan) sealedAt(slack float64) bool { return p.minSlack > 0 && slack >= p.minSlack }

// FirstStart returns the earliest node occupation time — the moment the
// task's first data transmission can begin and the plan becomes committed
// (non-replannable).
func (p *Plan) FirstStart() float64 {
	first := math.Inf(1)
	for _, s := range p.Starts {
		if s < first {
			first = s
		}
	}
	return first
}

// Rn returns the latest node start time (the r_n of the analysis).
func (p *Plan) Rn() float64 {
	last := math.Inf(-1)
	for _, s := range p.Starts {
		if s > last {
			last = s
		}
	}
	return last
}
