package rt

import (
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

// PlanContext carries the cluster state a partitioner plans a fresh plan
// against. Whether a waiting task keeps the plan it holds is the
// scheduler's call alone (keeps), so no context carries a prior plan.
type PlanContext struct {
	P     dlt.Params     // reference cost coefficients (the shared pair when homogeneous)
	N     int            // cluster size
	Now   float64        // current time; starts are clamped to max(Now, task arrival)
	View  *AvailView     // tentative per-node release times
	Costs *dlt.CostModel // per-node cost coefficients; nil or uniform = homogeneous

	// scratch is where search evaluates its candidates and cuts its plans.
	// Each scheduler hands in its own, never shared between goroutines; a
	// context built by hand makes one.
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
// releases itself after checking the deadline — nor hold on to the plan,
// which the scheduler may recycle. It is called only for a fresh plan: a
// waiting task whose plan the scheduler keeps (keeps) costs no call.
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

// clampedInto writes r_k = max(Release(node_k), A_i, now) for the k =
// len(ids) earliest-available nodes (Fig. 2's "set processor available
// times", clamped so replanned waiting tasks cannot start in the past).
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

// anchored marks IITDLT and OPR, and what embeds them: estimates never below
// r_1 + E(σ,n) on n homogeneous nodes. Unexported, so no other can claim it.
type anchored interface{ anchored() }

// PlanMinNodes is the whole Plan of the same partitioners, which differ in
// their Estimator only: a plan is searched from ñ_min(t) nodes up to the
// whole cluster, admitted against the task's deadline, and sealed. An
// anchored search whose earliest node frees at r_1 past the start floor
// starts at ñ_min(limit − r_1) if that is more: no single-round dispatch on
// nodes free from r_1 on ends before r_1 + E(σ,n) (Eq. 8), IITDLT's r_n + Ê
// is at least its dispatch (Theorem 4) and OPR's r_n + E(σ,n) at least
// r_1 + E(σ,n), so every smaller n fails. The slack is widened by ε and by
// 10⁻⁹/(1 − β), as the rounding of E(σ,n) grows, so no candidate that
// meets it is skipped.
// The bound is taken once, at the smaller slack: ñ_min never falls as the
// slack shrinks, nor does a failing bound recover.
func (ctx *PlanContext) PlanMinNodes(t *Task, e Estimator) (*Plan, error) {
	absD, floor := t.AbsDeadline(), ctx.startFloor(t)
	eps := deadlineEps(absD)
	from, atR1 := absD-floor, false
	if _, a := e.(anchored); a && ctx.N > 0 && ctx.heteroCosts() == nil {
		if r1 := ctx.View.EarliestTimeAt(1); r1 > floor {
			wide := 1 + 1e-9*(ctx.P.Cms+ctx.P.Cps)/ctx.P.Cms
			if s := (absD + 2*eps - r1) * wide; s < from {
				from, atR1 = s, true
			}
		}
	}
	n0, ok := ctx.minNodes(t, from)
	if !ok || n0 > ctx.N {
		return nil, ErrInfeasible // γ ≤ 0 or too few nodes, from the floor or r_1
	}
	pl, err := ctx.search(t, n0, ctx.N, absD+eps, e)
	if err != nil {
		return nil, err
	}
	pl.fromBound = true
	if atR1 {
		pl.minSlack = from // the plan starts at r_1: sealed where the bound was taken
	} else {
		ctx.sealMinNodes(pl, absD-floor)
	}
	return pl, nil
}

// keeps is the scheduler's one rule for a waiting plan pl at the slack of
// its task's start floor, under queueState.test's guards: it reports
// whether a fresh Plan would be pl, bit for bit. A sealed plan is kept;
// past its seal, a plan of PlanMinNodes is kept while the bound fits it
// (fitsBound); any other plan is planned afresh.
func (ctx *PlanContext) keeps(pl *Plan, slack float64) bool {
	return pl.sealedAt(slack) || pl.fromBound && ctx.fitsBound(pl, slack)
}

// fitsBound is keeps' recheck for a plan of PlanMinNodes: a fresh search
// stops at the first node count from ñ_min(t) on whose estimate meets the
// deadline (the anchor skips only counts that fail). Under the guards the
// estimates are the ones pl's search saw, and the bound only grows as the
// slack shrinks, so while it has not passed pl's node count the search ends
// exactly where pl's did.
func (ctx *PlanContext) fitsBound(pl *Plan, slack float64) bool {
	n0, ok := ctx.minNodes(pl.Task, slack)
	return ok && n0 <= len(pl.Nodes)
}

// sealMinNodes finishes a fresh plan of PlanMinNodes whose search took its
// bound at the given slack from the start floor (one that took it at r_1's
// seals there): it evaluates the bound once more at the smallest slack the
// plan can ever be kept at — its own first start's — and, when the bound
// still fits the plan's node count there, records that slack, so the
// scheduler keeps the plan on every later test with one comparison and no
// Plan call (Plan.sealedAt); keeps rechecks the bound only where the seal
// does not reach. A plan that starts at its start floor is sealed at the
// given slack, where the bound is the node count the search began at: no
// second evaluation. TestQueuedCounts holds every plan waiting behind a
// late-deadline arrival sealed, and the arrival to one Plan call.
func (ctx *PlanContext) sealMinNodes(pl *Plan, searched float64) {
	t := pl.Task
	slack := t.AbsDeadline() - math.Max(pl.FirstStart(), t.Arrival)
	if slack != searched && !ctx.fitsBound(pl, slack) {
		return
	}
	pl.minSlack = slack
}

// sealFixed seals a plan whose node count does not depend on the slack
// (OPR-AN's whole cluster, User-Split's request) at its own first start's
// slack, the smallest it can be kept at: every later start floor up to the
// first start leaves each clamped start, and so the whole fresh plan,
// unchanged.
func sealFixed(pl *Plan, err error) (*Plan, error) {
	if err == nil {
		pl.minSlack = pl.Task.AbsDeadline() - pl.FirstStart()
	}
	return pl, err
}

// deadlineEps returns the absolute tolerance for comparing a completion
// estimate against an absolute deadline, scaled to the magnitudes involved
// so the mathematically guaranteed inequalities survive floating point.
func deadlineEps(absDeadline float64) float64 {
	return 1e-9 * math.Max(1, math.Abs(absDeadline))
}
