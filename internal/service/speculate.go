package service

// This file is the service half of optimistic two-phase admission. The
// scheduler half (internal/rt/speculate.go) runs the Fig. 2 test against an
// epoch-stamped snapshot. This half is admit, the one road every submission
// takes — Submit, SubmitBatch, speculation on or off, the replay after an
// epoch conflict: it decides when to speculate, snapshots under s.mu (the
// shard's one lock), walks each task through the same decide (stamp, sweep,
// gate, test) on the private context off the lock, and under s.mu again
// lets one epoch comparison choose between installing what was precomputed
// and walking the tasks again on the live state. Every decision is
// therefore still made against serialized state — speculation only moves
// the planning work off the lock, which pays only while another submitter
// is there to use the lock meanwhile. A lone submitter walks the live state
// directly.

import (
	"context"
	"errors"
	"slices"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

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
	// specWindow is how many submits after the last one that found another
	// submitter in flight still speculate. Past it the submitter is alone:
	// off-lock planning would overlap nothing and cost a snapshot and an
	// install, so it decides on the live state under the lock. Routing on
	// the in-flight count alone is not enough: two submitters whose calls
	// seldom overlap (two HTTP connections) would each take the live road
	// most of the time, and a live-road submit holds the service lock for
	// its whole test, so the other's snapshot waits behind it.
	specWindow = 64
)

// SetSpeculation toggles optimistic admission. It is on by default, and
// then engages only while submitters overlap; turning it off forces every
// submission through the fully serialized path (useful for bit-identity
// baselines and as an operational escape hatch). Safe to call at any time
// from any goroutine.
func (s *Service) SetSpeculation(on bool) { s.speculating.Store(on) }

// specAllowed decides lock-free whether this submission should attempt the
// speculative path: another submitter must be in flight (shared) or have
// been within the last specWindow submits, the gate must be open and the
// workload must not be in a conflict storm (adaptive backoff with periodic
// probes).
func (s *Service) specAllowed(shared bool) bool {
	if shared {
		s.company.Store(specWindow)
	} else if s.company.Load() <= 0 || s.company.Add(-1) < 0 {
		return false
	}
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
// snapshot that follows has nothing to refresh. The stack's three
// functions run under s.mu.
func (s *Service) getSpec() *rt.SpecContext {
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
	if len(s.specFree) < specFreeMax {
		s.specFree = slices.Insert(s.specFree, 0, sc)
	}
}

// carrySpec parks a context whose outcome was just installed (the caller
// holds s.mu): it mirrors the scheduler's new state, so it is stamped with
// the new epoch and goes on top, displacing the stalest one when full.
func (s *Service) carrySpec(sc *rt.SpecContext) {
	s.sched.Carry(sc)
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
}

// noteConflict records n planning-backed speculations discarded on an epoch
// mismatch and lengthens the conflict streak.
func (s *Service) noteConflict(n int) {
	s.specConflicts.Add(int64(n))
	s.specStreak.Add(1)
}

// errSpecFallback marks a task the speculation cannot decide off the lock.
var errSpecFallback = errors.New("service: speculation fell back")

// specRec is one task's precomputed outcome awaiting install, as decide
// returned it. The task lives in the record itself so the pointer handed
// to the scheduler stays stable; sched holds an accepted task's schedule.
type specRec struct {
	task   rt.Task
	now    float64
	reason errs.Reason
	plan   *rt.Plan
	sched  rt.Schedule
	stages rt.SpecStages
}

// installLocked lands one precomputed outcome under s.mu. The caller has
// found the epoch unchanged, so the real due-commit sweep commits exactly
// the plans the speculation folded into its base, and the serialized state
// is exactly what the speculation planned against.
func (s *Service) installLocked(rec *specRec) (Decision, error) {
	if err := s.commitDueLocked(rec.now); err != nil {
		return Decision{}, err
	}
	if rec.plan != nil || rec.reason == errs.ReasonInfeasible {
		s.sched.Install(rec.now, rec.plan, rec.sched, rec.stages)
	}
	return s.finishLocked(&rec.task, rec.now, rec.reason, rec.plan), nil
}

// admit decides tasks in order, appending one Decision per decided task to
// out; on a hard error the decisions made so far come back with it. Each
// task's context is consulted exactly once, by whichever phase reaches the
// task first.
//
// When speculation is allowed, phase 1 holds s.mu only for the snapshot,
// then walks the tasks off the lock against that one evolving snapshot, up
// to the first it cannot decide there. Phase 2 takes s.mu for the rest of
// the call: on an unchanged epoch the precomputed outcomes group-install;
// otherwise they are dropped. Whatever is then left undecided — everything,
// after a conflict, with speculation off or for a lone submitter — walks
// the same decide on the live state, so the decisions are exactly those of
// a fully serialized execution.
func (s *Service) admit(ctx context.Context, tasks []rt.Task, out []Decision) ([]Decision, error) {
	shared := s.inflight.Add(1) > 1
	defer s.inflight.Add(-1)
	var (
		from   = 0          // tasks[from:end] are still to decide
		end    = len(tasks) // a cancelled context ends the batch early, with endErr
		seen   = 0          // tasks[:seen] have had their context consulted
		endErr error

		sc      *rt.SpecContext
		recs    []specRec // recs[:n] hold the outcomes phase 1 reached
		n       int
		planned int // how many of them the scheduler's test decided
	)
	if len(tasks) > 0 && s.specAllowed(shared) && s.open() == nil {
		s.mu.Lock()
		sc = s.getSpec()
		s.sched.SnapshotInto(sc)
		s.mu.Unlock()
		// recs is sized once up front: the scheduler retains &recs[i].task
		// pointers, which must not move.
		recs = make([]specRec, len(tasks))
		for ; n < end; n++ {
			if ctx != nil {
				if endErr = ctx.Err(); endErr != nil {
					end = n
					break
				}
			}
			seen = n + 1
			rec := &recs[n]
			rec.task = tasks[n]
			var err error
			if rec.now, rec.reason, rec.plan, err = s.decide(sc, &rec.task); err != nil {
				break
			}
			if rec.plan != nil || rec.reason == errs.ReasonInfeasible {
				planned++
				rec.stages = sc.Stages()
			}
			if rec.plan != nil {
				// The next task's speculation overwrites the context's
				// buffers; only the last schedule can be read in place.
				if rec.sched = sc.Schedule(); n+1 < len(tasks) {
					rec.sched = slices.Clone(rec.sched)
				}
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case sc == nil:
	case s.open() != nil:
		// Stopped accepting since phase 1: the live walk reports it.
		s.putSpec(sc)
	case s.sched.Epoch() != sc.Epoch():
		if planned > 0 {
			s.noteConflict(planned)
		}
		s.putSpec(sc)
	default:
		for i := range recs[:n] {
			d, err := s.installLocked(&recs[i])
			if err != nil {
				s.putSpec(sc)
				return out, err
			}
			out = append(out, d)
		}
		if planned > 0 {
			s.noteSpeculative(planned)
		}
		if from = n; n == len(tasks) {
			s.carrySpec(sc)
		} else {
			// Phase 1 stopped inside task n, possibly after sweeping for it.
			s.putSpec(sc)
		}
	}
	// A record lives while any plan points at its task, and plans are cut
	// from shared arena chunks, so a dead plan can keep it reachable: once
	// installed or dropped, it must pin no plan or schedule of its own.
	for i := range recs {
		recs[i].plan, recs[i].sched = nil, nil
	}
	for i := from; i < end; i++ {
		if i >= seen && ctx != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		if err := s.open(); err != nil {
			return out, err
		}
		// The task's record is cut from the service's arena: the scheduler,
		// its plans and an observer may keep the pointer.
		task := &rt.Carve(&s.tasks, 1)[0]
		*task = tasks[i]
		now, reason, pl, err := s.decide(nil, task)
		if err != nil {
			return out, err
		}
		out = append(out, s.finishLocked(task, now, reason, pl))
	}
	return out, endErr
}
