package rt

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
)

// Observer receives admission-control lifecycle callbacks: one OnAccept or
// OnReject per decided task and one OnCommit per committed plan, in
// decision order. It is installed with service.Config.Observer (or
// rtdls.WithObserver), and the service makes every call, under its
// shard's lock, next to the event it publishes. See package trace for
// ready-made implementations.
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
	cl   *cluster.Cluster
	pol  Policy
	part Partitioner

	// q is the waiting queue, its current feasible schedule and the
	// availability view the schedule is applied on. availBuf and eligBuf
	// back the view's snapshot so a resync allocates nothing.
	q        queueState
	availBuf []float64
	eligBuf  []bool

	// Two stamps of the cluster's mutation counter say what of q is still
	// exact. clVersion is the version the view's base reflects: while it
	// matches, CommitDue folds commits into the base incrementally and a
	// test starts from the overlay it finds; on a mismatch (node churn,
	// fleet growth, out-of-band commits) the view is rebuilt from a full
	// snapshot. planVersion is the version the plan table is exact for: it
	// is stamped by every whole-queue test and advanced by CommitDue when
	// the commits were the head of the queue, so any other cluster mutation
	// leaves it behind and the next test re-plans the whole queue.
	clVersion   uint64
	planVersion uint64

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
// partitioning module.
func NewScheduler(cl *cluster.Cluster, pol Policy, part Partitioner) *Scheduler {
	if cl == nil {
		panic("rt: NewScheduler: nil cluster")
	}
	if part == nil {
		panic("rt: NewScheduler: nil partitioner")
	}
	return &Scheduler{cl: cl, pol: pol, part: part}
}

// SetStageObserver installs per-stage timing callbacks (nil disables
// them). The observer runs inside the caller's serialized call, once per
// admission test, and must be cheap and concurrency-safe.
func (s *Scheduler) SetStageObserver(so StageObserver) {
	s.stageObs = so
}

// Cluster returns the cluster the scheduler manages.
func (s *Scheduler) Cluster() *cluster.Cluster { return s.cl }

// Submit runs the schedulability test for a newly arrived task and either
// admits it (installing the new feasible schedule for the whole waiting
// queue) or rejects it (leaving the previous schedule untouched). The
// returned error reports malformed input or internal inconsistencies, not
// infeasibility — an infeasible task is a clean (false, nil) rejection.
func (s *Scheduler) Submit(t *Task, now float64) (accepted bool, err error) {
	pl, err := s.Admit(t, now)
	return pl != nil, err
}

// Admit is Submit returning the admitted task's plan, which is nil exactly
// when the task was not admitted.
func (s *Scheduler) Admit(t *Task, now float64) (*Plan, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.Arrival > now {
		return nil, fmt.Errorf("rt: task %d submitted at %v before its arrival %v: %w",
			t.ID, now, t.Arrival, errs.ErrBadConfig)
	}
	if s.q.planOf(t.ID) != nil {
		return nil, fmt.Errorf("rt: task %d is already waiting: %w", t.ID, errs.ErrBadConfig)
	}

	// Per-stage timing spans are measured only when an observer is
	// installed; the nil path costs a single predictable branch.
	var t0 time.Time
	if s.stageObs != nil {
		t0 = time.Now()
	}
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
		s.planVersion = s.cl.Version()
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

// sync prepares q for a test or a revalidation against the current
// cluster: the plan table is hinted only while planVersion holds, and the
// view keeps its overlay only while clVersion holds — the steady-state
// path, since CommitDue moves both stamps along with its own commits. On
// a view mismatch the view is rebuilt from a fresh snapshot with nothing
// applied, the placement-eligibility mask is reinstalled when any node is
// drained or down, and the live (placeable) node count — O(n) under churn
// — and cost model are recached. A fully-up fleet takes exactly the
// pre-fleet path: no mask, live == N.
func (s *Scheduler) sync() {
	v := s.cl.Version()
	if s.planVersion != v {
		s.q.hinted = false
	}
	if s.q.view != nil && s.clVersion == v {
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
	s.clVersion = v
}

// SetNodeState transitions one cluster node and, on a capacity loss
// (draining or down), re-runs the schedulability test over the whole
// waiting queue: tasks whose plans no longer fit the remaining live nodes
// are removed and returned as displaced — their original accept stands in
// the counters, but they will never commit here. Restoring a node never
// displaces anything (capacity only grows); waiting plans are left as
// planned and re-optimised naturally on the next arrival.
func (s *Scheduler) SetNodeState(id int, st cluster.NodeState, now float64) (displaced []*Task, err error) {
	if err := s.cl.SetNodeState(id, st); err != nil {
		// Bad node id / state is a caller mistake, not an engine fault: tag
		// it so the wire layer maps it to 400 rather than 500.
		return nil, fmt.Errorf("%v: %w", err, errs.ErrBadConfig)
	}
	if st == cluster.NodeUp {
		return nil, nil
	}
	return s.Revalidate(now)
}

// Revalidate re-runs the schedulability test for every waiting task
// against the current fleet, in policy order, and removes (returning) the
// tasks that no longer fit. It is the capacity-loss analogue of Submit's
// whole-queue test: kept tasks get fresh plans stacked on the live nodes,
// displaced tasks keep their accept counted but will never commit.
func (s *Scheduler) Revalidate(now float64) (displaced []*Task, err error) {
	q := &s.q
	if len(q.queue) == 0 {
		return nil, nil
	}
	s.sync()
	q.planAt(now)
	base := q.rebuildFrom(0)
	for _, e := range q.saved {
		w := e.task
		if q.live == 0 {
			displaced = append(displaced, w)
			continue
		}
		pl, perr := checkDeadline(s.part.Plan(&q.pctx, w))
		if perr != nil {
			if errors.Is(perr, ErrInfeasible) {
				displaced = append(displaced, w)
				continue
			}
			q.restore(0, base)
			return nil, perr
		}
		q.push(w, pl)
	}
	q.accept(now)
	s.planVersion = s.cl.Version()
	s.queueLen.Store(int64(len(q.queue)))
	return displaced, nil
}

// NextCommit returns the earliest plan start time among waiting tasks, or
// ok=false when the queue is empty. The driver schedules a commit event at
// this instant.
func (s *Scheduler) NextCommit() (at float64, ok bool) {
	at = math.Inf(1)
	for _, e := range s.q.queue {
		at = math.Min(at, e.first)
	}
	return at, !math.IsInf(at, 1)
}

// CommitDue commits every waiting plan whose first transmission start is ≤
// now, in queue order, updating the cluster's release times and accounting.
// It returns the committed plans (possibly none), valid until the next call;
// when a commit fails, the ones committed before it, beside the error.
func (s *Scheduler) CommitDue(now float64) ([]*Plan, error) {
	stageObs := s.stageObs
	var t0 time.Time
	if stageObs != nil {
		t0 = time.Now()
	}
	// While the stamps hold, the sweep folds each commit into the view's
	// base and the plan table stays exact, so the next admission test
	// neither resnapshots all N nodes nor re-plans the tasks that stay. An
	// error leaves both stamps behind, which safely forces a full resync.
	before := s.cl.Version()
	synced := s.q.view != nil && s.clVersion == before
	s.committed = s.committed[:0]
	err := s.q.sweep(now, synced, func(pl *Plan) error {
		if err := s.cl.Commit(pl.Nodes, pl.Starts, pl.Release, pl.ReservedIdle); err != nil {
			return fmt.Errorf("rt: committing task %d: %w", pl.Task.ID, err)
		}
		s.commits.Add(1)
		s.committed = append(s.committed, pl)
		return nil
	})
	s.queueLen.Store(int64(len(s.q.queue)))
	if err != nil {
		return s.committed, err
	}
	if synced {
		s.clVersion = s.cl.Version()
	}
	if s.planVersion == before {
		s.planVersion = s.cl.Version()
	}
	if stageObs != nil && len(s.committed) > 0 {
		stageObs.ObserveStage(StageCommit, time.Since(t0).Seconds())
	}
	return s.committed, nil
}

// PlanFor returns the current plan for a waiting task, or nil. It scans
// the queue, so admission never calls it (Admit returns the plan); it is
// kept for tests that inspect a task's plan after later replans.
func (s *Scheduler) PlanFor(taskID int64) *Plan {
	return s.q.planOf(taskID)
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
