package rt

import "time"

// This file is the scheduler half of optimistic two-phase admission.
//
// Phase 1 holds the caller's lock only to capture an epoch-stamped
// snapshot of the scheduler's queue state (SnapshotInto); off it, the
// submitting goroutine simulates the due-commit sweep
// (SpecContext.CommitDue) and runs the Fig. 2 schedulability test
// (Speculate) on its private copy — the same queueState code the
// serialized Submit runs on the live state.
//
// Phase 2 is the short critical section: the service compares the snapshot
// epoch against the live one (Epoch) under its lock and, if nothing
// changed, installs the precomputed outcome (Install) — the in-lock window
// shrinks from "the whole admission test" to "an epoch comparison plus a
// copy of the schedule". On an epoch mismatch the speculation is discarded
// and the submission replays through the ordinary serialized Submit, on
// the live, incrementally maintained state, so every decision is still
// made against serialized state and the decision stream is bit-for-bit
// what a purely serialized execution would produce. Wherever a test ran,
// its outcome reaches the counters, the stage observer and the test's
// account through the one land (scheduler.go).
//
// A context whose outcome installed holds exactly the scheduler's new
// state — same commits folded into its base, same schedule, still applied
// on its view — so Carry stamps it with the new epoch and the next
// submission resumes from it instead of copying the cluster and
// rebuilding the view. Contexts that lost the race stay stale and refresh
// on their next snapshot.

// Epoch identifies one version of the scheduler's decision-relevant state:
// the cluster mutation counter (commits, node churn, fleet growth) plus a
// queue generation counter covering waiting-queue changes that leave the
// cluster untouched (accepts). Rejections are epoch-neutral — they change
// nothing a later admission test reads — which is exactly why reject-heavy
// traffic speculates with almost no conflicts.
type Epoch struct {
	cluster uint64
	queue   uint64
}

// SpecStages is the account of one admission test: the per-stage
// wall-clock spans and the plan counts. A speculative test's account is
// recorded only when the speculation installs, so every scheduler-reaching
// submit still contributes exactly one sample per stage.
type SpecStages struct {
	Cand  float64 // seconds in candidate selection
	Plan  float64 // seconds in partitioner calls: fresh plans only
	Check float64 // seconds in the schedulability check
	Timed bool    // a StageObserver was installed at snapshot time

	Computed     int  // plans the partitioner computed afresh
	Reused       int  // plans kept from the previous schedule, with no Plan call
	DemandReject bool // the demand bound decided the reject, before any plan
}

// SpecOutcome classifies one speculative admission test.
type SpecOutcome uint8

const (
	// SpecFallback: the speculation hit a case it cannot decide off-lock
	// (duplicate task id in the snapshot, a hard partitioner error) — the
	// submission must replay through the serialized path, which reproduces
	// the identical outcome under the lock.
	SpecFallback SpecOutcome = iota
	// SpecReject: the schedulability test rejected (fleet down, demand
	// bound, fast-reject, infeasible, or a deadline miss in the tentative
	// schedule). Rejections leave the serialized state untouched, so an
	// unchanged epoch lets the reject install as-is.
	SpecReject
	// SpecAccept: every task in the tentative schedule meets its deadline;
	// the precomputed queue and plans are ready to install.
	SpecAccept
)

// SpecContext is one goroutine's private copy of the scheduler's queue
// state, stamped with the epoch it mirrors. It holds no admission state of
// its own: which waiting plans a test keeps follows from the copied
// schedule alone, as on the scheduler. Contexts are reused across
// submissions; see Carry for when the copy itself, not just its
// allocations, survives.
type SpecContext struct {
	epoch Epoch
	q     queueState
	avail []float64 // snapshot of the committed release times (owned by the view once reset)
	elig  []bool    // placement eligibility mask (hasElig only)
	// hasElig: some node is drained or down, so the view needs the mask.
	hasElig bool
	// synced: q.view has been reset from avail/elig since the last refresh,
	// i.e. q is usable as it stands.
	synced bool
	timed  bool

	plan   *Plan // the submitted task's own plan (SpecAccept)
	stages SpecStages

	refreshes int // full snapshots taken, read by the package tests
}

// Epoch returns the snapshot's epoch stamp.
func (sc *SpecContext) Epoch() Epoch { return sc.epoch }

// QueueLen returns the current length of the speculated waiting queue —
// after CommitDue it is exactly what the serialized busy check would see.
func (sc *SpecContext) QueueLen() int { return len(sc.q.queue) }

// Schedule returns the speculated schedule (valid until the next
// CommitDue/Speculate call against this context).
func (sc *SpecContext) Schedule() Schedule { return sc.q.queue }

// AcceptedPlan returns the submitted task's plan after a SpecAccept.
func (sc *SpecContext) AcceptedPlan() *Plan { return sc.plan }

// Stages returns the stage spans of the last Speculate call.
func (sc *SpecContext) Stages() SpecStages { return sc.stages }

// SnapshotInto makes sc a copy of the scheduler's queue state, stamped
// with the current epoch: the per-node release times, the eligibility mask,
// and the waiting queue with its plans. Task and Plan objects are immutable
// after creation, so the element copies share them safely with the live
// scheduler. The context's view is rebuilt lazily, off the lock, by the
// first CommitDue.
func (s *Scheduler) SnapshotInto(sc *SpecContext) {
	sc.plan = nil
	sc.timed = s.stageObs != nil
	e := s.Epoch()
	if sc.synced && e == sc.epoch {
		// The epoch hasn't moved since this context was stamped, so the
		// committed base, eligibility mask and schedule it holds — including
		// its own incremental CommitDue work and the overlay on its view —
		// are still exact. This is what lets reject storms (no epoch
		// movement at all) and a run of installs by one context (every move
		// is its own, carried over) go without ever copying the cluster.
		return
	}
	sc.refreshes++
	sc.epoch = e
	sc.avail = s.cl.AvailInto(sc.avail)
	q := &sc.q
	q.live = s.cl.LiveNodes()
	sc.hasElig = q.live < s.cl.N()
	if sc.hasElig {
		sc.elig = s.cl.EligibleInto(sc.elig)
	}
	q.p, q.costs = s.cl.Params(), s.cl.Costs()
	q.queue = append(q.queue[:0], s.q.queue...)
	q.hinted = s.q.hinted && s.planVersion == e.cluster
	q.testedAt = s.q.testedAt
	sc.synced = false
}

// Epoch returns the epoch of the scheduler's present state. A snapshot
// whose stamp equals it was taken from exactly this state; the service
// compares the two under its lock, so a match holds until it lets go.
func (s *Scheduler) Epoch() Epoch {
	return Epoch{cluster: s.cl.Version(), queue: s.queueGen}
}

// Carry stamps sc with the scheduler's current epoch. The service calls it
// under its lock right after installing sc's outcome — together with the
// real due-commit sweeps sc's CommitDue calls simulated — which is exactly
// when sc's state is the scheduler's: the next SnapshotInto then finds
// nothing to copy.
func (s *Scheduler) Carry(sc *SpecContext) {
	sc.epoch = s.Epoch()
}

// Invalidate marks sc as holding nothing the scheduler ever held, so the
// next SnapshotInto copies afresh whatever the epoch. The service calls it
// on a context it did not install: Speculate may have advanced the schedule
// to an accept the scheduler never adopted, with the epoch unmoved.
func (sc *SpecContext) Invalidate() { sc.synced = false }

// CommitDue simulates the due-commit sweep the serialized submit performs
// before testing a new arrival: every speculated plan whose first
// transmission is due by now folds into the view's base (the release times
// cl.Commit would install) and leaves the waiting queue.
func (sc *SpecContext) CommitDue(now float64) {
	if !sc.synced {
		var elig []bool
		if sc.hasElig {
			elig = sc.elig
		}
		sc.q.resetView(sc.avail, elig)
		sc.synced = true
	}
	sc.q.sweep(now, true, nil) //nolint:errcheck // only a commit callback can fail
}

// Speculate runs the admission test for t off-lock against the context's
// state (call CommitDue(now) first): the very test the serialized Submit
// runs, on an equivalent state. On SpecAccept the context's schedule
// advances to the accepted one, so a batch can keep speculating
// subsequent tasks.
//
// The scheduler's policy and partitioner are immutable after construction,
// so reading them off the caller's lock is safe; nothing else of the live
// scheduler is touched.
func (s *Scheduler) Speculate(sc *SpecContext, t *Task, now float64) SpecOutcome {
	sc.plan, sc.stages = nil, SpecStages{}
	var t0 time.Time
	if sc.timed {
		t0 = time.Now()
	}
	// A duplicate id is a hard error on the serialized path; produce it
	// there rather than deciding off-lock. So is a hard partitioner error:
	// the serialized replay reproduces it.
	if sc.q.planOf(t.ID) != nil {
		return SpecFallback
	}
	out, pl, st, _ := sc.q.test(s.pol, s.part, t, now, t0)
	sc.plan, sc.stages = pl, st
	return out
}

// Install lands a precomputed outcome of Speculate: with pl non-nil an
// accept, whose speculated schedule sched replaces the live one, and
// otherwise an epoch-neutral reject. The caller has found the epoch
// unchanged and committed the due plans, so this is exactly what the
// serialized test would have done. The test's account recorded during
// speculation lands here, keeping one sample per stage per submit.
func (s *Scheduler) Install(now float64, pl *Plan, sched Schedule, st SpecStages) {
	if pl == nil {
		s.land(SpecReject, st)
		return
	}
	s.q.adopt(sched, now)
	s.land(SpecAccept, st)
}
