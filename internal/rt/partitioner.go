package rt

import (
	"errors"
	"math"

	"rtdls/internal/dlt"
	"rtdls/internal/errs"
)

// ErrInfeasible is returned by partitioners when no assignment can meet the
// task's deadline; the schedulability test then fails and the new arrival
// is rejected (in a deployment, rejection triggers deadline renegotiation —
// the paper's footnote 1; see examples/admission). It is the shared
// errs.ErrInfeasible sentinel, so errors.Is matches across packages.
var ErrInfeasible = errs.ErrInfeasible

// PlanContext carries the cluster state a partitioner plans against.
type PlanContext struct {
	P     dlt.Params     // reference cost coefficients (the shared pair when homogeneous)
	N     int            // cluster size
	Now   float64        // current time; starts are clamped to max(Now, task arrival)
	View  *AvailView     // tentative per-node release times
	Costs *dlt.CostModel // per-node cost coefficients; nil or uniform = homogeneous

	// Prior, when non-nil, is the plan the task holds in the current
	// feasible schedule. The scheduler offers it only when a fresh Plan
	// would see the very inputs Prior was computed from — the same committed
	// base, the same plans stacked before it, and clamped start times that
	// the later Now leaves unchanged (Prior's first start is not before the
	// task's start floor) — so the one thing that can differ is where the
	// node search starts. A partitioner that knows the field answers
	// without consulting the view (it may hold later tasks' assignments):
	// Prior itself when it can tell a fresh Plan would end on Prior's node
	// count, ErrPriorDeclined otherwise, and Plan is then called again with
	// Prior nil against the exact view. One that does not know the field
	// just plans; the scheduler discards that result and stops offering.
	Prior *Plan

	// scratch is where search evaluates its candidates and cuts its plans.
	// The schedulers and speculation contexts hand in their own, never
	// shared between goroutines; a context built by hand makes one.
	scratch *Candidate
}

func (ctx *PlanContext) candidate() *Candidate {
	if ctx.scratch == nil {
		ctx.scratch = new(Candidate)
	}
	return ctx.scratch
}

// heteroCosts returns the per-node cost model when the cluster is genuinely
// heterogeneous, and nil otherwise. Uniform cost models deliberately return
// nil so every partitioner routes them through the legacy homogeneous
// formulas — that is what makes a uniform CostModel reproduce the scalar
// (Cms, Cps) scheduler bit for bit.
func (ctx *PlanContext) heteroCosts() *dlt.CostModel {
	if ctx.Costs != nil && !ctx.Costs.Uniform() {
		return ctx.Costs
	}
	return nil
}

// startFloor returns the earliest instant the task may occupy a node.
func (ctx *PlanContext) startFloor(t *Task) float64 {
	return max(ctx.Now, t.Arrival)
}

// Partitioner is the framework's task-partitioning module (Decision #2)
// fused with the node-assignment rule (Decision #3): given the tentative
// cluster state it selects the nodes, start times, load fractions and the
// completion estimate for one task.
//
// Plan must not mutate the view — the scheduler applies the returned plan's
// releases itself after checking the deadline.
type Partitioner interface {
	// Name returns the partitioner's identifier (e.g. "dlt-iit").
	Name() string
	Plan(ctx *PlanContext, t *Task) (*Plan, error)
}

// FastRejecter is an optional Partitioner extension consulted by the
// scheduler before the full O(queue × plan) replan: FastReject reports
// whether Plan is *certain* to find no deadline-meeting assignment for t
// against the given cluster state. Implementations must be sound — a true
// return must imply the full admission test would reject t (so never a task
// whose Plan is a hard error) — and cheap: an order-statistic query against
// the availability index, never a partitioner run. The context's view holds
// the committed state plus the plans kept ahead of t, so that no node is
// later in t's own view.
//
// Implementing it also opts into the demand bound (queueState.overDemand),
// by declaring the plans physical: a plan holds node i over [Starts[i],
// Release[i]], from no earlier than the node's release, the arrival and the
// planning instant until no later than Est, clear of every other plan, and
// reserves at least σ·min Cps node-seconds in all — the computation alone,
// at the fastest node's speed. One that books less must not implement it.
type FastRejecter interface {
	FastReject(ctx *PlanContext, t *Task) bool
}

// ClampedStarts materialises r_k = max(Release(node_k), A_i, now) for the k
// earliest-available nodes (Fig. 2's "set processor available times",
// clamped so replanned waiting tasks cannot start in the past). The
// returned slices are freshly allocated and owned by the caller; external
// partitioners use it for the same node-selection rule.
func (ctx *PlanContext) ClampedStarts(t *Task, k int) (ids []int, starts []float64) {
	ids = make([]int, k)
	starts = make([]float64, k)
	ctx.clampedInto(t, ids, starts)
	return ids, starts
}

// clampedInto is ClampedStarts into the caller's buffers, of equal length k.
func (ctx *PlanContext) clampedInto(t *Task, ids []int, starts []float64) {
	ctx.View.EarliestInto(ids, starts)
	floor := ctx.startFloor(t)
	for i, tm := range starts {
		starts[i] = max(tm, floor)
	}
}

// ProvablyLate reports whether any plan that (a) uses at least the k
// earliest-available eligible nodes and (b) transmits the whole load over
// the (fastest) link provably completes past t's deadline. Every
// partitioner's completion estimate strictly exceeds both max(floor, r_k)
// — the task cannot finish before its latest required node frees up — and
// floor + σ·Cms — the load must cross the network before the last byte
// computes — so when either lower bound already reaches the deadline (with
// the same ε tolerance the admission check uses), the full test is certain
// to reject. One order-statistic query against the index.
func (ctx *PlanContext) ProvablyLate(t *Task, k int) bool {
	absD := t.AbsDeadline()
	floor := ctx.startFloor(t)
	lb := math.Max(floor, ctx.View.EarliestTimeAt(k))
	cms := ctx.P.Cms
	if cm := ctx.heteroCosts(); cm != nil {
		cms = cm.Fastest().Cms
	}
	if send := floor + t.Sigma*cms; send > lb {
		lb = send
	}
	return lb >= absD+deadlineEps(absD)
}

// minNodes returns the ñ_min bound the node search of IITDLT, OPR-MN and
// multiround starts at, for the given slack (absolute deadline minus start
// floor), over the homogeneous or the per-node cost model, and whether it
// exists (γ > 0). It never grows with the slack. ln β is kept in scratch.
func (ctx *PlanContext) minNodes(t *Task, slack float64) (n0 int, ok bool) {
	if cm := ctx.heteroCosts(); cm != nil {
		return dlt.HeteroMinNodesBound(cm, t.Sigma, slack)
	}
	c := ctx.candidate()
	if c.lnP != ctx.P || c.lnB == 0 {
		c.lnP, c.lnB = ctx.P, math.Log(ctx.P.Beta())
	}
	return dlt.MinNodesBoundLn(ctx.P, c.lnB, t.Sigma, slack)
}

// FastRejectMinNodes is the shared FastReject implementation for
// partitioners whose node search starts at the ñ_min(t) bound (IITDLT,
// OPR-MN, multiround): infeasible when the bound itself fails (γ ≤ 0 or
// ñ_min > N — exactly the pre-loop check Plan performs), or when even the
// ñ_min earliest nodes are provably too late.
func (ctx *PlanContext) FastRejectMinNodes(t *Task) bool {
	n0, ok := ctx.minNodes(t, t.AbsDeadline()-ctx.startFloor(t))
	if !ok || n0 > ctx.N {
		return true
	}
	return ctx.ProvablyLate(t, n0)
}

// ErrPriorDeclined is what a partitioner returns to a Plan call that offered
// PlanContext.Prior when it knows a fresh Plan might not end on Prior: the
// scheduler plans the task afresh, with no Prior, against its exact view.
var ErrPriorDeclined = errors.New("rt: offered prior plan declined")

// PlanMinNodes is the whole Plan of the same partitioners, which differ in
// their Estimator only: an offered Prior is kept or declined, and a fresh
// plan is searched from ñ_min(t) nodes up to the whole cluster, admitted
// against the task's deadline, and sealed.
func (ctx *PlanContext) PlanMinNodes(t *Task, e Estimator) (*Plan, error) {
	if ctx.Prior != nil {
		return ctx.keepPriorMinNodes(t)
	}
	absD := t.AbsDeadline()
	slack := absD - ctx.startFloor(t)
	n0, ok := ctx.minNodes(t, slack)
	if !ok || n0 > ctx.N {
		// Even starting immediately the deadline cannot be met (γ ≤ 0 or
		// the whole cluster is too small).
		return nil, ErrInfeasible
	}
	// ñ_min(t) underestimates the requirement when the task must wait for
	// busy nodes; the search allocates more until the estimate meets the
	// deadline.
	pl, err := ctx.search(t, n0, ctx.N, absD+deadlineEps(absD), e)
	if err != nil {
		return nil, err
	}
	ctx.sealMinNodes(pl, slack)
	return pl, nil
}

// keepPriorMinNodes answers a Plan call that offered Prior: the search
// tries n = ñ_min(t), ñ_min(t)+1, … and stops at the first node count
// whose estimate meets the deadline. The estimates are
// the ones Prior's search saw (see PlanContext.Prior) and the bound only
// grows as the slack shrinks, so while it has not passed Prior's node count
// the search ends exactly where Prior's did.
func (ctx *PlanContext) keepPriorMinNodes(t *Task) (*Plan, error) {
	pr := ctx.Prior
	slack := t.AbsDeadline() - ctx.startFloor(t)
	if pr.minSlack > 0 && slack >= pr.minSlack {
		return pr, nil
	}
	if n0, ok := ctx.minNodes(t, slack); ok && n0 <= len(pr.Nodes) {
		return pr, nil
	}
	return nil, ErrPriorDeclined
}

// sealMinNodes finishes a fresh plan of PlanMinNodes, searched from the
// bound at the given slack: it evaluates the bound once more at the
// smallest slack the plan can ever be offered back at — the one at its own
// first start — and, when the bound still fits the plan's node count there,
// records that slack, so keepPriorMinNodes answers every later offer with a
// comparison. A plan that starts at its start floor is sealed at the very
// slack it was searched from, where the bound is the node count the search
// began at: no second evaluation. Without the seal each waiting task costs
// every arrival a bound evaluation, and a late-deadline arrival behind a long
// queue spends its time on those: BenchmarkSubmitQueued grows x7.7 from 8
// to 128 waiting tasks. TestQueuedCounts holds every plan waiting behind
// such an arrival sealed.
func (ctx *PlanContext) sealMinNodes(pl *Plan, searched float64) {
	t := pl.Task
	slack := t.AbsDeadline() - math.Max(pl.FirstStart(), t.Arrival)
	if slack != searched {
		if n0, ok := ctx.minNodes(t, slack); !ok || n0 > len(pl.Nodes) {
			return
		}
	}
	pl.minSlack = slack
}

// deadlineEps returns the absolute tolerance for comparing a completion
// estimate against an absolute deadline, scaled to the magnitudes involved
// so the mathematically guaranteed inequalities survive floating point.
func deadlineEps(absDeadline float64) float64 {
	return 1e-9 * math.Max(1, math.Abs(absDeadline))
}
