package rt

import (
	"errors"
	"math"
	"slices"
	"time"

	"rtdls/internal/dlt"
)

// schedule is a waiting queue in policy order with one plan per task.
type schedule []slot

// slot is one waiting task of a schedule.
type slot struct {
	task  *Task
	plan  *Plan
	first float64 // plan.FirstStart(): every sweep and every test compare it
	mark  int     // view.Mark() just before plan was applied; valid while it is
}

// queueState is the explicit state the Fig. 2 schedulability test runs
// over: the waiting queue in policy order with its current feasible plans,
// and an availability view whose base is the committed cluster state and
// whose tentative overlay holds the plans of the first `applied` waiting
// tasks, stacked in queue order with one view checkpoint each. The
// scheduler owns one, guarded by its caller's lock.
//
// Keeping the overlay applied between tests is what makes the test
// incremental: an arrival ordered at position p needs the view at
// checkpoint p, which is |applied − p| plans away instead of the whole
// queue, and the tasks ordered before it keep their plans whenever the
// scheduler can tell a fresh Plan would return the same one (keeps).
type queueState struct {
	queue   schedule // admitted, not yet committed; in policy order
	applied int      // the plans of queue[:applied] are applied on the view, in order

	view  *AvailView
	base  baseCap // the view's committed base as the demand bound reads it
	live  int     // placeable (NodeUp) nodes
	p     dlt.Params
	costs *dlt.CostModel

	// hinted reports that the plans are the outcome of a whole-queue test
	// and that the committed state has since changed only by commits of the
	// queue's head — the same releases the overlay already held — so every
	// remaining task still sees the view its plan was computed against.
	// testedAt is that test's time: at an earlier now the start floors, and
	// with them the clamped start times, could differ.
	hinted   bool
	testedAt float64

	// sum is the O(1) summary of the queue: every change to the queue zeroes
	// it, and it is recomputed on the next read. rebuildFrom keeps it in
	// savedSum for restore, which puts the queue back as it was.
	sum, savedSum tally

	// The tentative schedule is built in place, from the first re-planned
	// position on; saved holds the tail it overwrites, to put back if the
	// test rejects.
	saved schedule
	pctx  PlanContext
	// scratch is where the partitioner's node searches run their
	// candidates, through pctx.
	scratch Candidate
}

// tally is what the demand bound's certificate, the due test, NextCommit
// and the duplicate-id check read of the waiting queue, in O(1) while the
// queue stands still. first, which the slots hold, and offN, which the
// plans hold, are each recomputed on their own when read: the due test
// reads first on every decision, the bound offN only for a reject it
// decides.
type tally struct {
	sigma float64 // Σσ of the waiting tasks
	last  float64 // their latest absolute deadline; -Inf with none waiting
	maxID int64   // their largest id
	first float64 // their plans' earliest first start; +Inf with none waiting
	offN  bool    // a waiting plan's node count is not its task's UserN

	ok, firstOK, offOK bool // which of the fields hold for the queue as it is
}

// tally returns the queue's summary but first and offN, recomputing it
// after a change.
func (q *queueState) tally() *tally {
	if !q.sum.ok {
		s := q.sum
		s.sigma, s.last, s.maxID, s.ok = 0, math.Inf(-1), math.MinInt64, true
		for _, e := range q.queue {
			s.sigma += e.task.Sigma
			s.last = max(s.last, e.task.AbsDeadline())
			s.maxID = max(s.maxID, e.task.ID)
		}
		q.sum = s
	}
	return &q.sum
}

// firstStart returns the waiting plans' earliest first start, +Inf with
// none waiting.
func (q *queueState) firstStart() float64 {
	if !q.sum.firstOK {
		first := math.Inf(1)
		for _, e := range q.queue {
			first = min(first, e.first)
		}
		q.sum.first, q.sum.firstOK = first, true
	}
	return q.sum.first
}

// offUserN reports whether a waiting plan's node count is not its task's
// UserN.
func (q *queueState) offUserN() bool {
	if !q.sum.offOK {
		q.sum.offN = slices.ContainsFunc(q.queue, func(e slot) bool { return len(e.plan.Nodes) != e.task.UserN })
		q.sum.offOK = true
	}
	return q.sum.offN
}

// planAt points pctx at the state as of now, for the Plan calls of one test.
func (q *queueState) planAt(now float64) {
	q.pctx = PlanContext{P: q.p, N: q.live, Now: now, View: q.view, Costs: q.costs, scratch: &q.scratch}
}

// resetView points the view at a fresh snapshot of the committed release
// times (owned by the view afterwards) with nothing applied, masking the
// nodes elig marks unplaceable; nil means every node is placeable.
func (q *queueState) resetView(avail []float64, elig []bool) {
	if q.view == nil {
		q.view = NewAvailView(avail)
	} else {
		q.view.Reset(avail)
	}
	if elig != nil {
		q.view.SetEligible(elig)
	}
	q.base.reset(avail, elig)
	q.applied = 0
}

// seek moves the view to checkpoint k — the committed base plus the plans
// of queue[:k] — rewinding the undo log or applying the missing plans,
// whichever side of k the overlay currently ends on.
func (q *queueState) seek(k int) {
	if q.applied > k {
		q.view.RollbackTo(q.queue[k].mark)
		q.applied = k
		return
	}
	for ; q.applied < k; q.applied++ {
		e := &q.queue[q.applied]
		e.mark = q.view.Mark()
		q.view.Apply(e.plan.Nodes, e.plan.Release)
	}
}

// planOf returns the waiting task's current plan, or nil: at once for an
// id above every waiting one, when the summary holds.
func (q *queueState) planOf(taskID int64) *Plan {
	if q.sum.ok && taskID > q.sum.maxID {
		return nil
	}
	for _, e := range q.queue {
		if e.task.ID == taskID {
			return e.plan
		}
	}
	return nil
}

// rebuildFrom starts a tentative schedule that keeps queue[:k] and
// re-plans the rest: the view goes to checkpoint k, the tail of the
// schedule moves to saved and the caller appends the new tail with push.
// It returns the view mark restore must roll back to.
func (q *queueState) rebuildFrom(k int) (base int) {
	q.seek(k)
	q.saved = append(q.saved[:0], q.queue[k:]...)
	q.queue = q.queue[:k]
	q.savedSum, q.sum = q.sum, tally{}
	return q.view.Mark()
}

// push appends a task with its fresh plan to the tentative schedule and
// applies the plan on the view.
func (q *queueState) push(t *Task, pl *Plan) {
	q.queue = append(q.queue, slot{task: t, plan: pl, first: pl.FirstStart(), mark: q.view.Mark()})
	q.view.Apply(pl.Nodes, pl.Release)
	q.applied++
	q.sum = tally{}
}

// restore abandons the tentative schedule of rebuildFrom(k), recycling its
// fresh plans: the saved tail goes back behind queue[:k], the view to k.
func (q *queueState) restore(k, base int) {
	q.view.RollbackTo(base)
	q.applied = k
	q.recycle(q.queue[k:])
	q.queue = append(q.queue[:k], q.saved...)
	q.sum = q.savedSum
}

// accept makes the tentative schedule — now a feasible whole-queue
// schedule tested at now and fully applied on the view — the current one.
func (q *queueState) accept(now float64) {
	q.recycle(q.saved)
	clear(q.saved)
	q.hinted = true
	q.testedAt = now
}

// outcome is how one admission test ended.
type outcome uint8

const (
	// outError: a hard partitioner error; the test decided nothing.
	outError outcome = iota
	// outReject: the arrival is rejected (by Scheduler.Screen: fleet down or
	// the demand bound; by the test: fast-reject or a deadline miss in the
	// tentative schedule), and the schedule is unchanged.
	outReject
	// outAccept: every task of the tentative schedule meets its deadline,
	// and that schedule is now the current one.
	outAccept
)

// account is what one admission test reports besides its outcome: the
// per-stage wall-clock spans and the plan counts.
type account struct {
	Cand  float64 // seconds in candidate selection
	Plan  float64 // seconds in partitioner calls: fresh plans only
	Check float64 // seconds in the schedulability check
	Timed bool    // the spans were measured

	Computed     int  // plans the partitioner computed afresh
	Reused       int  // plans kept from the previous schedule, with no Plan call
	DemandReject bool // the demand bound decided the reject, before any plan
}

// test is the paper's Fig. 2 schedulability test for a new arrival t at
// time now: merge t into the waiting queue in policy order, plan every
// task of the tentative schedule on top of its predecessors, and accept
// iff every completion estimate meets its deadline. It takes an arrival
// that Scheduler.Screen did not refuse: at least one node is live, and the
// demand bound is not evaluated again. The view's base must hold the
// committed cluster state. On outAccept the tentative schedule
// is installed and t's plan returned; on outReject the schedule is
// unchanged; outError carries a hard partitioner error.
//
// Tasks ordered before t keep their plan, with no Plan call, while
// PlanContext.keeps holds; from the first task that does not, the rest of
// the schedule is planned afresh. A non-zero t0 is the instant the
// caller started timing the test and enables the stage spans.
func (q *queueState) test(pol Policy, part Partitioner, t *Task, now float64, t0 time.Time) (outcome, *Plan, account, error) {
	timed := !t0.IsZero()
	st := account{Timed: timed}
	var planDur time.Duration
	plan := func(ti *Task) (*Plan, error) {
		if !timed {
			return part.Plan(&q.pctx, ti)
		}
		tp := time.Now()
		pl, err := part.Plan(&q.pctx, ti)
		planDur += time.Since(tp)
		return pl, err
	}
	// TempTaskList ← NewTask + TaskWaitingQueue, ordered by the policy.
	p := q.position(pol, t)
	q.planAt(now)

	// Keep the plans of the tasks ordered before t, under keeps' guards:
	// the schedule must be hinted, time must not have run backwards, and the
	// plan's first start must not lie before the task's start floor
	// max(now, arrival) (a due plan the caller has not committed would be
	// re-clamped to now). The inline seal comparison decides nearly every
	// plan; keeps is called only where it misses.
	kept := 0
	if q.hinted && now >= q.testedAt {
		q.seek(p)
		for kept < p {
			e := &q.queue[kept]
			if e.first < now || e.first < e.task.Arrival {
				break
			}
			slack := e.task.AbsDeadline() - q.pctx.startFloor(e.task)
			if !e.plan.sealedAt(slack) && !q.pctx.keeps(e.plan, slack) {
				break
			}
			kept++
		}
	}
	q.seek(kept)
	st.Reused = kept

	// Infeasibility fast-reject: one order-statistic query instead
	// of planning the rest of the schedule. The view holds the committed
	// state plus plans that t's predecessors keep in any case, so t's own
	// view is no earlier on any node and the bound stays sound.
	if fr, ok := part.(FastRejecter); ok && fr.FastReject(&q.pctx, t) {
		// Rejected before any Plan call: every submit contributes one sample
		// per stage, here with explicit zero plan and check spans.
		if timed {
			st.Cand = time.Since(t0).Seconds()
		}
		return outReject, nil, st, nil
	}

	// The tentative schedule: the kept plans stay, everything from there on
	// — the rest of the queue with t at position p — is planned afresh.
	base := q.rebuildFrom(kept)
	// Whatever ends the test short of an accept — a reject, a hard error, a
	// partitioner's panic — puts the schedule back as the test found it.
	accepted := false
	defer func() {
		if !accepted {
			q.restore(kept, base)
		}
	}()

	var candDur time.Duration
	if timed {
		// Candidate selection ends here, before any Plan call; the rest
		// splits into planning (the partitioner calls) and the
		// schedulability check (deadline comparisons and view updates).
		candDur = time.Since(t0)
	}
	finish := func() {
		if !timed {
			return
		}
		st.Cand = candDur.Seconds()
		st.Plan = planDur.Seconds()
		st.Check = max(time.Since(t0)-candDur-planDur, 0).Seconds()
	}
	var own *Plan
	for i := kept; i <= kept+len(q.saved); i++ {
		ti := t
		if i < p {
			ti = q.saved[i-kept].task
		} else if i > p {
			ti = q.saved[i-kept-1].task
		}
		st.Computed++
		pl, err := q.checkDeadline(plan(ti))
		if err != nil {
			finish()
			if errors.Is(err, ErrInfeasible) {
				return outReject, nil, st, nil
			}
			return outError, nil, st, err
		}
		q.push(ti, pl)
		if i == p {
			own = pl
		}
	}
	// All tasks in the cluster are schedulable: accept TempSchedule.
	accepted = true
	q.accept(now)
	finish()
	return outAccept, own, st, nil
}

// position is where t goes in the policy-ordered queue: in front of the
// first waiting task it precedes. The order is a total one, so that task is
// found by bisection.
func (q *queueState) position(pol Policy, t *Task) int {
	p, hi := 0, len(q.queue)
	for p < hi {
		if h := int(uint(p+hi) >> 1); pol.Less(t, q.queue[h].task) {
			hi = h
		} else {
			p = h + 1
		}
	}
	return p
}

// recycle gives the plans of a dropped part of a schedule back to the pool.
func (q *queueState) recycle(dropped schedule) {
	for _, e := range dropped {
		q.scratch.recycle(e.plan)
	}
}

// checkDeadline is the schedulability check on one partitioner result: a
// plan whose completion estimate misses its task's deadline is as
// infeasible as no plan at all, and goes back to the pool.
func (q *queueState) checkDeadline(pl *Plan, err error) (*Plan, error) {
	if err != nil {
		return nil, err
	}
	if absD := pl.Task.AbsDeadline(); pl.Est > absD+deadlineEps(absD) {
		q.scratch.recycle(pl)
		return nil, ErrInfeasible
	}
	return pl, nil
}

// commitEps tolerates event-time rounding when deciding whether a plan's
// first transmission is due.
const commitEps = 1e-9

// dueBy is the latest first start that is due at now.
func dueBy(now float64) float64 { return now + commitEps*math.Max(1, math.Abs(now)) }

// due reports, in O(1), whether a waiting plan's first transmission is
// due by the instant by (dueBy): the head's is, or the earliest one is not
// later. A NaN first start answers yes and leaves it to the sweep.
func (q *queueState) due(by float64) bool {
	return len(q.queue) > 0 && q.queue[0].first <= by || !(q.firstStart() > by)
}

// sweep removes every plan whose first transmission is due by now from the
// queue, in queue order, calling commit for each and folding their releases
// into the view's base, which must hold the committed state. The due plans
// are normally the head of the queue: if the overlay covers them, the fold
// is a cut of the undo log's head and the rest of the overlay stays
// applied. A due plan behind one that is not (possible only
// with a partitioner whose first starts do not follow the queue order)
// changes the view under the tasks it jumps, so the schedule stops being
// hinted. A commit error ends the sweep with the failed plan and everything
// after it still queued; the caller must then treat the view as out of
// sync.
func (q *queueState) sweep(now float64, commit func(*Plan) error) error {
	horizon := dueBy(now)
	if !q.due(horizon) {
		return nil
	}
	head := 0
	for head < len(q.queue) && q.queue[head].first <= horizon {
		head++
	}
	scattered := false
	for _, e := range q.queue[min(head+1, len(q.queue)):] {
		if e.first <= horizon {
			scattered = true
			break
		}
	}
	if head == 0 && !scattered {
		return nil
	}

	var err error
	if !scattered {
		done := 0
		for ; done < head; done++ {
			if err = commit(q.queue[done].plan); err != nil {
				break
			}
		}
		for _, e := range q.queue[:done] {
			q.base.commit(e.plan.Nodes, e.plan.Release)
		}
		switch {
		case q.applied >= done:
			cut := q.view.Mark()
			if done < q.applied {
				cut = q.queue[done].mark
			}
			q.view.CommitPrefix(cut)
			q.applied -= done
		default:
			q.seek(0)
			for _, e := range q.queue[:done] {
				q.view.CommitBase(e.plan.Nodes, e.plan.Release)
			}
		}
		q.truncate(copy(q.queue, q.queue[done:]))
		return err
	}

	q.seek(0)
	q.hinted = false
	n := 0
	for _, e := range q.queue {
		if err == nil && e.first <= horizon {
			if err = commit(e.plan); err == nil {
				q.view.CommitBase(e.plan.Nodes, e.plan.Release)
				q.base.commit(e.plan.Nodes, e.plan.Release)
				continue
			}
		}
		q.queue[n] = e
		n++
	}
	q.truncate(n)
	return err
}

// truncate shortens the queue to n entries, dropping the stale tail
// references.
func (q *queueState) truncate(n int) {
	clear(q.queue[n:])
	q.queue = q.queue[:n]
	q.sum = tally{}
}
