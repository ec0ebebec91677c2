package rt

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
)

// Observer receives admission-control lifecycle callbacks: one OnAccept or
// OnReject per decided task and one OnCommit per committed plan, in decision
// order, each under its shard's lock next to the event the service publishes
// (service.Config.Observer, rtdls.WithObserver; package trace has some). The
// Task and the Plan a callback gets, and the Plan's Task, are valid only
// while it runs: the scheduler pools its plans and the service the records
// of tasks that died (rejected, committed or displaced), and the shard's
// next decision may reuse either. Copy what you keep.
type Observer interface {
	OnAccept(now float64, t *Task, p *Plan)
	OnReject(now float64, t *Task)
	OnCommit(now float64, p *Plan)
}

// Scheduler implements the paper's Fig. 2 schedulability test and the
// surrounding admission control. On every arrival the waiting queue
// (ordered by the policy) plus the new task is planned as one tentative
// schedule on top of the committed cluster state; the new task is accepted
// only if every task in the tentative schedule meets its deadline, in
// which case the tentative schedule replaces the previous plan. The test
// is incremental — tasks ordered before the arrival keep their plans and
// their place in the availability view whenever re-planning them provably
// returns the same plan (see queueState) — and decision for decision
// identical to re-planning the whole queue. A waiting task becomes
// committed — occupying its nodes, no longer replannable — when its first
// data transmission begins (its plan's earliest node start time).
//
// A Scheduler takes no lock: one goroutine at a time may use it, and its
// caller serializes the calls — service.Service does, under its shard's one
// lock. Only the atomic counter reads (Stats, PlanCounts, DemandRejects,
// QueueLen) may run outside that lock.
type Scheduler struct {
	cl    *cluster.Cluster
	pol   Policy
	part  Partitioner
	bound bool // part is a FastRejecter: the demand bound applies

	// q is the waiting queue, its current feasible schedule and the
	// availability view the schedule is applied on. availBuf and eligBuf
	// back the view's snapshot so a resync allocates nothing.
	q        queueState
	availBuf []float64
	eligBuf  []bool

	// stale says the view is behind the cluster (see invalidate); while it
	// is clear, CommitDue folds its commits into the view's base.
	stale bool

	// Admission counters live on atomics so Stats() — and every observer
	// built on it, including the /metrics scrape — reads them without the
	// caller's lock. Writes happen only inside serialized calls, so the
	// counters remain mutually consistent at quiescence. Every decided
	// arrival is one accept or one reject, so arrivals are their sum.
	accepts       atomic.Int64
	rejects       atomic.Int64
	commits       atomic.Int64
	queueLen      atomic.Int64
	maxQueue      atomic.Int64
	plansComputed atomic.Int64
	plansReused   atomic.Int64
	demandRejects atomic.Int64

	stageObs  StageObserver
	committed []*Plan // backs what CommitDue returns
}

// NewScheduler builds a scheduler for the given cluster, policy and
// partitioning module. The cluster belongs to the scheduler from then on,
// its only writer: change it only through the scheduler.
func NewScheduler(cl *cluster.Cluster, pol Policy, part Partitioner) *Scheduler {
	if cl == nil {
		panic("rt: NewScheduler: nil cluster")
	}
	if part == nil {
		panic("rt: NewScheduler: nil partitioner")
	}
	_, bound := part.(FastRejecter)
	return &Scheduler{cl: cl, pol: pol, part: part, bound: bound}
}

// SetStageObserver installs per-stage timing callbacks (nil disables
// them). The observer runs inside the caller's serialized call, once per
// admission test, and must be cheap and concurrency-safe.
func (s *Scheduler) SetStageObserver(so StageObserver) {
	s.stageObs = so
}

// Submit runs the schedulability test for a newly arrived task and either
// admits it (installing the new feasible schedule for the whole waiting
// queue) or rejects it (leaving the previous schedule untouched). The
// returned error reports malformed input or internal inconsistencies, not
// infeasibility — an infeasible task is a clean (false, nil) rejection.
func (s *Scheduler) Submit(t *Task, now float64) (accepted bool, err error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	if refused, err := s.Screen(t, now); refused || err != nil {
		return false, err
	}
	pl, err := s.Admit(t, now)
	return pl != nil, err
}

// Screen is the front of every decision, for a task that has passed
// Task.Validate: it reports the arrival errors, and refuses — a decided and
// counted reject, with no plan made or kept — a task that no node is live
// for or that the demand bound shows cannot fit. Only a task it did not
// refuse goes on to Admit. Screen reads nothing of t after it returns, so
// the caller may decide on a scratch copy and hand Admit the task's own
// record.
func (s *Scheduler) Screen(t *Task, now float64) (refused bool, err error) {
	if t.Arrival > now {
		return false, fmt.Errorf("rt: task %d submitted at %v before its arrival %v: %w",
			t.ID, now, t.Arrival, errs.ErrBadConfig)
	}
	if s.q.planOf(t.ID) != nil {
		return false, fmt.Errorf("rt: task %d is already waiting: %w", t.ID, errs.ErrBadConfig)
	}
	var t0 time.Time
	if s.stageObs != nil {
		t0 = time.Now()
	}
	s.sync()
	st := account{Timed: !t0.IsZero()}
	if s.q.live > 0 {
		// The demand bound, for FastRejecter partitioners; it needs no view.
		if !s.bound || !s.q.overDemand(s.pol, t, -1, now) {
			return false, nil
		}
		st.DemandReject = true
	}
	// Refused before any Plan call: the candidate span is the whole screen,
	// and the plan and check spans are explicit zeros.
	if st.Timed {
		st.Cand = time.Since(t0).Seconds()
	}
	s.land(outReject, st)
	return true, nil
}

// Admit runs the Fig. 2 test for a task that Screen did not refuse,
// returning the admitted task's plan — nil exactly when the task was not
// admitted, and valid only until the scheduler's next call.
func (s *Scheduler) Admit(t *Task, now float64) (*Plan, error) {
	// Per-stage timing spans are measured only when an observer is
	// installed; the nil path costs a single predictable branch.
	var t0 time.Time
	if s.stageObs != nil {
		t0 = time.Now()
	}
	s.release()
	s.sync()
	out, pl, st, err := s.q.test(s.pol, s.part, t, now, t0)
	s.land(out, st)
	return pl, err
}

// land is where every admission test ends: the test's account lands on the
// plan counters and the stage observer, and the outcome on its counter. For
// an accept the schedule now in q — a whole-queue test's against the
// current cluster state — is the one that admitted the task. A test that
// ended in a hard error (outError) decided nothing and counts as no
// arrival.
func (s *Scheduler) land(out outcome, st account) {
	if st.Computed != 0 {
		s.plansComputed.Add(int64(st.Computed))
	}
	if st.Reused != 0 {
		s.plansReused.Add(int64(st.Reused))
	}
	if st.DemandReject {
		s.demandRejects.Add(1)
	}
	if st.Timed && s.stageObs != nil {
		s.stageObs.ObserveStage(StageCandidate, st.Cand)
		s.stageObs.ObserveStage(StagePlan, st.Plan)
		s.stageObs.ObserveStage(StageCheck, st.Check)
	}
	switch out {
	case outAccept:
		s.accepts.Add(1)
		n := int64(len(s.q.queue))
		s.queueLen.Store(n)
		if n > s.maxQueue.Load() {
			s.maxQueue.Store(n)
		}
	case outReject:
		s.rejects.Add(1)
	}
}

// invalidate records a change of the cluster other than CommitDue's own
// commits: the next sync rebuilds the view, and the next test re-plans the
// whole queue.
func (s *Scheduler) invalidate() {
	s.stale = true
	s.q.hinted = false
}

// sync prepares q for a test, a revalidation or a sweep. A view that is
// not stale keeps its overlay. Otherwise it is rebuilt from a fresh
// snapshot with nothing applied, the placement-eligibility mask is
// reinstalled when any node is drained or down, and the live (placeable)
// node count — O(n) under churn — and cost model are recached. A fully-up
// fleet takes exactly the pre-fleet path: no mask, live == N.
func (s *Scheduler) sync() {
	if s.q.view != nil && !s.stale {
		return
	}
	s.availBuf = s.cl.AvailInto(s.availBuf)
	var elig []bool
	s.q.live = s.cl.LiveNodes()
	if s.q.live < s.cl.N() {
		s.eligBuf = s.cl.EligibleInto(s.eligBuf)
		elig = s.eligBuf
	}
	s.q.resetView(s.availBuf, elig)
	s.q.p, s.q.costs = s.cl.Params(), s.cl.Costs()
	s.stale = false
}

// SetNodeState transitions one cluster node and, on a capacity loss
// (draining or down), re-runs the schedulability test over the whole
// waiting queue: tasks whose plans no longer fit the remaining live nodes
// are removed and returned as displaced — their original accept stands in
// the counters, but they will never commit here. Restoring a node never
// displaces anything (capacity only grows); waiting plans are left as
// planned and re-optimised naturally on the next arrival. The transition is
// all-or-nothing: when the revalidation errs or panics, the node goes back
// to the state it had and the queue stays as it was.
func (s *Scheduler) SetNodeState(id int, st cluster.NodeState, now float64) (displaced []*Task, err error) {
	prev := s.cl.NodeStateList()
	if err := s.cl.SetNodeState(id, st); err != nil {
		// Bad node id / state is a caller mistake, not an engine fault: tag
		// it so the wire layer maps it to 400 rather than 500.
		return nil, fmt.Errorf("%v: %w", err, errs.ErrBadConfig)
	}
	s.invalidate() // the placement mask and the live count change
	if st == cluster.NodeUp {
		return nil, nil
	}
	done := false
	defer func() {
		if !done {
			s.cl.SetNodeState(id, prev[id]) //nolint:errcheck // id and state were valid
			s.invalidate()
		}
	}()
	displaced, err = s.Revalidate(now)
	done = err == nil
	return displaced, err
}

// AddNode grows the cluster by one node (see cluster.AddNode); waiting
// plans pick it up on the next test.
func (s *Scheduler) AddNode(nc dlt.NodeCost, availFrom float64) (int, error) {
	id, err := s.cl.AddNode(nc, availFrom)
	if err != nil {
		return 0, err
	}
	s.invalidate() // the node count and the cost model change
	return id, nil
}

// Revalidate re-runs the schedulability test for every waiting task
// against the current fleet, in policy order, and removes (returning) the
// tasks that no longer fit. It is the capacity-loss analogue of Submit's
// whole-queue test: kept tasks get fresh plans stacked on the live nodes,
// displaced tasks keep their accept counted but will never commit.
// SetNodeState is its one production caller.
func (s *Scheduler) Revalidate(now float64) (displaced []*Task, err error) {
	q := &s.q
	if len(q.queue) == 0 {
		return nil, nil
	}
	s.sync()
	q.planAt(now)
	base := q.rebuildFrom(0)
	// A hard error or a partitioner's panic puts the queue back as it was.
	accepted := false
	defer func() {
		if !accepted {
			q.restore(0, base)
		}
	}()
	for _, e := range q.saved {
		w := e.task
		if q.live == 0 {
			displaced = append(displaced, w)
			continue
		}
		pl, perr := q.checkDeadline(s.part.Plan(&q.pctx, w))
		if perr != nil {
			if errors.Is(perr, ErrInfeasible) {
				displaced = append(displaced, w)
				continue
			}
			return nil, perr
		}
		q.push(w, pl)
	}
	accepted = true
	q.accept(now)
	s.queueLen.Store(int64(len(q.queue)))
	return displaced, nil
}

// NextCommit returns the earliest plan start time among waiting tasks, or
// ok=false when the queue is empty, in O(1). The driver schedules a commit
// event at this instant.
func (s *Scheduler) NextCommit() (at float64, ok bool) {
	at = s.q.firstStart()
	return at, !math.IsInf(at, 1)
}

// Due reports, in O(1), whether CommitDue(now) may find a plan to commit;
// when it does not, CommitDue would commit nothing.
func (s *Scheduler) Due(now float64) bool { return s.q.due(dueBy(now)) }

// release gives back the plans the last CommitDue returned: the caller's
// hold on them ends with this call.
func (s *Scheduler) release() {
	for _, pl := range s.committed {
		s.q.scratch.recycle(pl)
	}
	s.committed = s.committed[:0]
}

// CommitDue commits every waiting plan whose first transmission start is ≤
// now, in queue order, updating the cluster's release times and accounting.
// It returns the committed plans (possibly none), valid only until the
// scheduler's next call, which recycles them; when a commit fails, the ones
// committed before it, beside the error.
func (s *Scheduler) CommitDue(now float64) ([]*Plan, error) {
	stageObs := s.stageObs
	var t0 time.Time
	if stageObs != nil {
		t0 = time.Now()
	}
	// The sweep folds each commit into the view's base and the plan table
	// stays exact: the next test neither resnapshots nor re-plans.
	s.release()
	s.sync()
	err := s.q.sweep(now, func(pl *Plan) error {
		if err := s.cl.Commit(pl.Nodes, pl.Starts, pl.Release, pl.ReservedIdle); err != nil {
			return fmt.Errorf("rt: committing task %d: %w", pl.Task.ID, err)
		}
		s.commits.Add(1)
		s.committed = append(s.committed, pl)
		return nil
	})
	s.queueLen.Store(int64(len(s.q.queue)))
	if err != nil {
		s.invalidate() // what failed the commit may be missing from the view
		return s.committed, err
	}
	if stageObs != nil && len(s.committed) > 0 {
		stageObs.ObserveStage(StageCommit, time.Since(t0).Seconds())
	}
	return s.committed, nil
}

// Stats is a consistent snapshot of the scheduler's admission counters.
type Stats struct {
	Arrivals    int // decided tasks: Accepts + Rejects
	Accepts     int // admitted tasks
	Rejects     int // rejected tasks
	Commits     int // committed (started) tasks
	QueueLen    int // admitted-but-uncommitted tasks right now
	MaxQueueLen int // largest waiting-queue length observed
}

// PlanCounts returns how many plans the admission tests so far computed
// by running the partitioner and how many they carried over unchanged from
// the previous schedule — the direct measure of the replanning an arrival
// causes. Lock-free, like Stats; kept out of Stats because the split
// depends on the path a decision took, not only on the decision stream.
func (s *Scheduler) PlanCounts() (computed, reused int64) {
	return s.plansComputed.Load(), s.plansReused.Load()
}

// DemandRejects returns how many rejects the demand bound decided with no
// plan computed or kept. Lock-free, and beside Stats for PlanCounts' reason.
func (s *Scheduler) DemandRejects() int64 { return s.demandRejects.Load() }

// QueueLen returns the number of admitted-but-uncommitted tasks: one
// atomic load, for callers that sample it on every submission.
func (s *Scheduler) QueueLen() int { return int(s.queueLen.Load()) }

// Stats returns a snapshot of all admission counters. It is lock-free —
// each counter is read atomically, so a snapshot taken while submissions
// are in flight may be mid-update by one task (e.g. Accepts incremented
// before the matching QueueLen), but never blocks or delays admission. At
// quiescence the snapshot is exact.
func (s *Scheduler) Stats() Stats {
	accepts, rejects := s.accepts.Load(), s.rejects.Load()
	return Stats{
		Arrivals:    int(accepts + rejects),
		Accepts:     int(accepts),
		Rejects:     int(rejects),
		Commits:     int(s.commits.Load()),
		QueueLen:    int(s.queueLen.Load()),
		MaxQueueLen: int(s.maxQueue.Load()),
	}
}
