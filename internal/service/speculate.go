package service

import (
	"context"
	"slices"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// This file is the service half of optimistic two-phase admission. The
// scheduler half (internal/rt/speculate.go) runs the Fig. 2 test against an
// epoch-stamped snapshot; this half decides when to speculate, replays the
// service-level gates (validation, deadline-past, busy) against the same
// snapshot, and owns phase 2: under the service lock, an epoch comparison
// decides between installing the precomputed outcome and falling back to
// the serialized path. Every decision is therefore still made against
// serialized state — speculation only moves the planning work off the lock.

const (
	// specStreakLimit is the number of consecutive conflicted speculations
	// after which the service stops speculating (the workload is conflicting
	// on every submit, so planning off-lock is pure waste)...
	specStreakLimit = 3
	// ...except for one probe every specProbeEvery submissions, which
	// detects when the conflict storm has passed and re-opens the gate. A
	// wasted probe costs one off-lock planning pass, so the rate bounds the
	// storm-mode overhead over pure serialized execution to a few percent.
	specProbeEvery = 32
)

// SetSpeculation toggles optimistic admission. It is on by default; turning
// it off forces every submission through the fully serialized path (useful
// for bit-identity baselines and as an operational escape hatch). Safe to
// call at any time from any goroutine.
func (s *Service) SetSpeculation(on bool) { s.speculating.Store(on) }

// Speculating reports whether optimistic admission is enabled.
func (s *Service) Speculating() bool { return s.speculating.Load() }

// specAllowed decides lock-free whether this submission should attempt the
// speculative path: the gate must be open and the workload must not be in a
// conflict storm (adaptive backoff with periodic probes).
func (s *Service) specAllowed() bool {
	if !s.speculating.Load() {
		return false
	}
	if s.specStreak.Load() < specStreakLimit {
		return true
	}
	return s.specProbe.Add(1)%specProbeEvery == 0
}

// specFreeMax bounds the parked speculation contexts (each holds O(nodes)
// buffers); a burst of more concurrent submitters allocates the excess and
// drops it afterwards.
const specFreeMax = 16

// getSpec takes the most recently carried context — after an installed
// speculation that is a copy of the scheduler's present state, so the
// snapshot that follows has nothing to refresh.
func (s *Service) getSpec() *rt.SpecContext {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	if n := len(s.specFree); n > 0 {
		sc := s.specFree[n-1]
		s.specFree[n-1] = nil
		s.specFree = s.specFree[:n-1]
		return sc
	}
	return new(rt.SpecContext)
}

// putSpec parks a context whose speculation did not install. Its schedule
// may be one the scheduler never adopted — an accept refused because the
// service stopped accepting leaves the epoch where it was — so only its
// buffers are kept, at the bottom of the stack, below every carried one.
func (s *Service) putSpec(sc *rt.SpecContext) {
	sc.Invalidate()
	s.specMu.Lock()
	defer s.specMu.Unlock()
	if len(s.specFree) < specFreeMax {
		s.specFree = slices.Insert(s.specFree, 0, sc)
	}
}

// carrySpec parks a context whose outcome was just installed (the caller
// holds s.mu): it mirrors the scheduler's new state, so it is stamped with
// the new epoch and goes on top, displacing the stalest one when full.
func (s *Service) carrySpec(sc *rt.SpecContext) {
	s.sched.Carry(sc)
	s.specMu.Lock()
	defer s.specMu.Unlock()
	if len(s.specFree) == specFreeMax {
		s.specFree = slices.Delete(s.specFree, 0, 1)
	}
	s.specFree = append(s.specFree, sc)
}

// noteSpeculative records n decisions installed from off-lock planning and
// resets the conflict streak.
func (s *Service) noteSpeculative(n int) {
	s.specInstalls.Add(int64(n))
	s.specStreak.Store(0)
	if s.inst != nil {
		s.inst.speculative.Add(uint64(n))
	}
}

// noteConflict records n planning-backed speculations discarded on an epoch
// mismatch and lengthens the conflict streak.
func (s *Service) noteConflict(n int) {
	s.specConflicts.Add(int64(n))
	s.specStreak.Add(1)
	if s.inst != nil {
		s.inst.conflicts.Add(uint64(n))
	}
}

// specRecKind classifies one speculated decision awaiting install.
type specRecKind uint8

const (
	recSvcReject   specRecKind = iota // service-level reject (deadline past, busy)
	recSchedReject                    // schedulability-test reject
	recAccept                         // accept with a precomputed schedule
)

// specRec is one task's precomputed outcome from a speculative batch. The
// task lives in the record itself so the pointer handed to the scheduler
// stays stable; sched holds the accepted schedule (in a batch, copied out
// of the speculation context, whose buffers are reused by the next task).
type specRec struct {
	kind   specRecKind
	reason errs.Reason
	task   rt.Task
	now    float64
	plan   *rt.Plan
	sched  rt.Schedule
	stages rt.SpecStages
}

// installRecLocked lands one precomputed decision under s.mu. The caller
// has validated the epoch and run the real due-commit sweep for rec.now, so
// the serialized state is exactly what the speculation planned against.
func (s *Service) installRecLocked(rec *specRec) Decision {
	switch rec.kind {
	case recSvcReject:
		return s.rejectLocked(&rec.task, rec.now, rec.reason)
	case recSchedReject:
		s.sched.InstallSpeculativeReject(&rec.task, rec.now, rec.stages)
		s.arrivals.Add(1)
		s.rejects.Add(1)
		if s.inst != nil {
			s.inst.submits.Inc()
			s.inst.reject(errs.ReasonInfeasible)
			s.notePlansLocked()
		}
		d := Decision{TaskID: rec.task.ID, At: rec.now, Shard: s.shard, Reason: errs.ReasonInfeasible}
		s.publishLocked(Event{Kind: EventReject, Time: rec.now, Task: rec.task, Reason: errs.ReasonInfeasible})
		return d
	default: // recAccept
		s.sched.InstallSpeculativeAccept(&rec.task, rec.now, rec.plan, rec.sched, rec.stages)
		s.arrivals.Add(1)
		s.accepts.Add(1)
		if s.inst != nil {
			s.inst.submits.Inc()
			s.inst.accepts.Inc()
			s.noteQueueLocked()
			s.notePlansLocked()
		}
		pl := rec.plan
		d := newDecision(rec.task.ID, rec.now, s.shard, pl)
		s.publishLocked(Event{
			Kind: EventAccept, Time: rec.now, Task: rec.task,
			Nodes: len(pl.Nodes), Est: pl.Est,
		})
		return d
	}
}

// submitSpeculative attempts the two-phase admission of one task. ok=false
// means the speculation declined or fell back before taking the lock — the
// caller must run the serialized path, which reproduces the identical
// decision. ok=true means the submission completed (speculatively installed
// or serialized inside, after a conflict).
func (s *Service) submitSpeculative(task rt.Task) (Decision, error, bool) {
	if s.closed.Load() || !s.accepting.Load() {
		return Decision{}, nil, false
	}
	// The serialized fallback must re-read the clock itself, so keep the
	// caller's task unstamped for it.
	orig := task
	now := s.clock.Now()
	if task.Arrival == 0 && now > 0 {
		task.Arrival = now
	}
	if task.Arrival > now {
		now = task.Arrival
	}
	t := &task
	if err := t.Validate(); err != nil {
		return Decision{}, nil, false
	}
	// Cheap service-level outcomes carry no planning work to parallelize;
	// let the serialized path decide them.
	if t.AbsDeadline() <= now {
		return Decision{}, nil, false
	}
	if s.maxQueue > 0 && s.sched.Stats().QueueLen >= s.maxQueue {
		return Decision{}, nil, false
	}

	// Phase 1 — no service or scheduler lock held past the snapshot.
	sc := s.getSpec()
	s.sched.SnapshotInto(sc)
	sc.CommitDue(now)
	if s.maxQueue > 0 && sc.QueueLen() >= s.maxQueue {
		s.putSpec(sc)
		return Decision{}, nil, false
	}
	out := s.sched.Speculate(sc, t, now)
	if out == rt.SpecFallback {
		s.putSpec(sc)
		return Decision{}, nil, false
	}

	// Phase 2 — epoch check plus install under the lock.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() || !s.accepting.Load() {
		s.putSpec(sc)
		d, err := s.submitLocked(orig)
		return d, err, true
	}
	if !s.sched.EpochIs(sc.Epoch()) {
		s.noteConflict(1)
		s.putSpec(sc)
		d, err := s.submitLocked(orig)
		return d, err, true
	}
	// The epoch is unchanged, so the real due-commit sweep commits exactly
	// the plans the speculation folded into its base.
	if err := s.commitDueLocked(now); err != nil {
		s.putSpec(sc)
		return Decision{}, err, true
	}
	rec := specRec{task: task, now: now, stages: sc.Stages()}
	if out == rt.SpecAccept {
		rec.kind = recAccept
		rec.plan = sc.AcceptedPlan()
		rec.sched = sc.Schedule()
	} else {
		rec.kind = recSchedReject
	}
	d := s.installRecLocked(&rec)
	s.noteSpeculative(1)
	s.carrySpec(sc)
	return d, nil, true
}

// submitBatchSpeculative plans a whole batch against one snapshot, then
// group-installs it under a single lock acquisition. Tasks the speculation
// cannot decide (validation errors, duplicates, hard planner errors) and
// everything after them replay through the serialized path in order, so the
// decision slice is exactly what a serialized SubmitBatch would return.
func (s *Service) submitBatchSpeculative(ctx context.Context, tasks []rt.Task) ([]Decision, error, bool) {
	if s.closed.Load() || !s.accepting.Load() {
		return nil, nil, false
	}

	// Phase 1: speculate task after task against the evolving snapshot.
	sc := s.getSpec()
	s.sched.SnapshotInto(sc)
	// recs is sized once up front: the scheduler retains &recs[i].task
	// pointers, which must not move.
	recs := make([]specRec, len(tasks))
	fb := len(tasks)   // first index that must replay serialized
	speculated := 0    // planning-backed records in recs[:fb]
	var fbErr error    // context error that ended phase 1
	fbChecked := false // task fb already consumed its context check here
phase1:
	for i := range tasks {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				fb, fbErr = i, err
				break
			}
		}
		rec := &recs[i]
		rec.task = tasks[i]
		now := s.clock.Now()
		if rec.task.Arrival == 0 && now > 0 {
			rec.task.Arrival = now
		}
		if rec.task.Arrival > now {
			now = rec.task.Arrival
		}
		rec.now = now
		if err := rec.task.Validate(); err != nil {
			fb, fbChecked = i, true
			break
		}
		sc.CommitDue(now)
		if rec.task.AbsDeadline() <= now {
			rec.kind = recSvcReject
			rec.reason = errs.ReasonDeadlinePast
			continue
		}
		if s.maxQueue > 0 && sc.QueueLen() >= s.maxQueue {
			rec.kind = recSvcReject
			rec.reason = errs.ReasonBusy
			continue
		}
		switch s.sched.Speculate(sc, &rec.task, now) {
		case rt.SpecFallback:
			fb, fbChecked = i, true
			break phase1
		case rt.SpecReject:
			rec.kind = recSchedReject
			rec.stages = sc.Stages()
			speculated++
		case rt.SpecAccept:
			rec.kind = recAccept
			rec.plan = sc.AcceptedPlan()
			rec.stages = sc.Stages()
			// Copy the accepted schedule out: the context's buffers are
			// overwritten by the next task's speculation.
			rec.sched = append(rt.Schedule(nil), sc.Schedule()...)
			speculated++
		}
	}

	// Phase 2: validate the epoch once, then group-install.
	s.mu.Lock()
	defer s.mu.Unlock()
	decisions := make([]Decision, 0, len(tasks))
	// serialFrom replays tasks[from:] through the serialized path. Each
	// task's context is consulted exactly once across both phases, so the
	// task that ended phase 1 with its check already spent skips it here.
	serialFrom := func(from int, skipFirstCheck bool) ([]Decision, error) {
		for i := from; i < len(tasks); i++ {
			if ctx != nil && !(skipFirstCheck && i == from) {
				if err := ctx.Err(); err != nil {
					return decisions, err
				}
			}
			d, err := s.submitLocked(tasks[i])
			if err != nil {
				return decisions, err
			}
			decisions = append(decisions, d)
		}
		return decisions, nil
	}
	if s.closed.Load() || !s.accepting.Load() {
		s.putSpec(sc)
		d, err := serialFrom(0, true)
		return d, err, true
	}
	if !s.sched.EpochIs(sc.Epoch()) {
		if speculated > 0 {
			s.noteConflict(speculated)
		}
		s.putSpec(sc)
		d, err := serialFrom(0, true)
		return d, err, true
	}
	// Tasks [0, fb) were context-checked in phase 1; install them without
	// re-consulting.
	for i := 0; i < fb; i++ {
		rec := &recs[i]
		if err := s.commitDueLocked(rec.now); err != nil {
			s.putSpec(sc)
			return decisions, err, true
		}
		decisions = append(decisions, s.installRecLocked(rec))
	}
	if speculated > 0 {
		s.noteSpeculative(speculated)
	}
	if fb == len(tasks) {
		s.carrySpec(sc)
	} else {
		// Phase 1 stopped inside task fb, possibly after sweeping for it.
		s.putSpec(sc)
	}
	if fbErr != nil {
		return decisions, fbErr, true
	}
	d, err := serialFrom(fb, fbChecked)
	return d, err, true
}
