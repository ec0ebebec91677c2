package rt

import (
	"errors"
	"math"
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

	// The tentative schedule is built in place, from the first re-planned
	// position on; saved holds the tail it overwrites, to put back if the
	// test rejects.
	saved schedule
	pctx  PlanContext
	// scratch is where the partitioner's node searches run their
	// candidates, through pctx.
	scratch Candidate
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

// planOf returns the waiting task's current plan, or nil.
func (q *queueState) planOf(taskID int64) *Plan {
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
	return q.view.Mark()
}

// push appends a task with its fresh plan to the tentative schedule and
// applies the plan on the view.
func (q *queueState) push(t *Task, pl *Plan) {
	q.queue = append(q.queue, slot{task: t, plan: pl, first: pl.FirstStart(), mark: q.view.Mark()})
	q.view.Apply(pl.Nodes, pl.Release)
	q.applied++
}

// restore abandons the tentative schedule of rebuildFrom(k), recycling its
// fresh plans: the saved tail goes back behind queue[:k], the view to k.
func (q *queueState) restore(k, base int) {
	q.view.RollbackTo(base)
	q.applied = k
	q.recycle(q.queue[k:])
	q.queue = append(q.queue[:k], q.saved...)
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
	// outReject: the arrival is rejected (fleet down, demand bound,
	// fast-reject, or a deadline miss in the tentative schedule), and the
	// schedule is unchanged.
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
// iff every completion estimate meets its deadline. The view's base must
// hold the committed cluster state. On outAccept the tentative schedule
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
	// early closes the spans of a test that ended before the tentative
	// schedule was planned, so before any Plan call: every submit
	// contributes one sample per stage, with explicit zero plan and check
	// spans.
	early := func() {
		if timed {
			st.Cand = time.Since(t0).Seconds()
		}
	}
	if q.live == 0 {
		// The whole fleet is drained or down: nothing is placeable.
		early()
		return outReject, nil, st, nil
	}

	// TempTaskList ← NewTask + TaskWaitingQueue, ordered by the policy: t
	// goes in front of the first waiting task it precedes. The queue is in
	// policy order, a total one, so that task is found by bisection.
	p, hi := 0, len(q.queue)
	for p < hi {
		if h := int(uint(p+hi) >> 1); pol.Less(t, q.queue[h].task) {
			hi = h
		} else {
			p = h + 1
		}
	}
	q.planAt(now)

	// Two shortcuts for FastRejecter partitioners; the demand bound needs no view.
	fr, _ := part.(FastRejecter)
	if fr != nil && q.overDemand(pol, t, p, now) {
		st.DemandReject = true
		early()
		return outReject, nil, st, nil
	}

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
	if fr != nil && fr.FastReject(&q.pctx, t) {
		early()
		return outReject, nil, st, nil
	}

	// The tentative schedule: the kept plans stay, everything from there on
	// — the rest of the queue with t at position p — is planned afresh.
	base := q.rebuildFrom(kept)

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
			q.restore(kept, base)
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
	q.accept(now)
	finish()
	return outAccept, own, st, nil
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
	horizon := now + commitEps*math.Max(1, math.Abs(now))
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
}
