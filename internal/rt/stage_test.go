package rt

import (
	"sync"
	"testing"

	"rtdls/internal/cluster"
)

// stageRecorder collects ObserveStage spans; guarded because the contract
// requires observers to be concurrency-safe.
type stageRecorder struct {
	mu    sync.Mutex
	spans map[Stage][]float64
}

func (r *stageRecorder) ObserveStage(stage Stage, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans == nil {
		r.spans = make(map[Stage][]float64)
	}
	r.spans[stage] = append(r.spans[stage], seconds)
}

func (r *stageRecorder) count(stage Stage) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans[stage])
}

func TestStageObserverSpans(t *testing.T) {
	s := newSched(t, 16, EDF, IITDLT{})
	rec := &stageRecorder{}
	s.SetStageObserver(rec)

	// One accept, one reject: both run the full candidate/plan/check
	// pipeline.
	if ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 2718}, 0); err != nil || !ok {
		t.Fatalf("Submit = %v, %v", ok, err)
	}
	if ok, _ := s.Submit(&Task{ID: 2, Arrival: 0, Sigma: 200, RelDeadline: 201}, 0); ok {
		t.Fatal("should reject")
	}
	for _, st := range []Stage{StageCandidate, StagePlan, StageCheck} {
		if got := rec.count(st); got != 2 {
			t.Fatalf("stage %v observed %d times, want 2", st, got)
		}
	}
	if got := rec.count(StageCommit); got != 0 {
		t.Fatalf("commit observed %d times before CommitDue", got)
	}

	if _, err := s.CommitDue(0); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(StageCommit); got != 1 {
		t.Fatalf("commit observed %d times, want 1", got)
	}
	// An empty commit sweep must not record a span.
	if _, err := s.CommitDue(1); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(StageCommit); got != 1 {
		t.Fatalf("empty CommitDue recorded a span (count %d)", got)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	for st, spans := range rec.spans {
		for _, sec := range spans {
			if sec < 0 {
				t.Fatalf("stage %v recorded negative span %g", st, sec)
			}
		}
	}
}

// TestStageSpansOnEarlyRejects is the regression test for the dropped-
// sample bug: rejects that resolve before planning begins — the whole
// fleet drained or down, or the infeasibility fast-reject — used to
// return before the deferred ObserveStage calls were armed, so those
// submits left no stage samples and the stage histograms drifted from
// rtdls_submits_total. Every submit must now contribute exactly one
// sample per admission stage, with explicit zero-length plan/check spans
// on the early paths.
func TestStageSpansOnEarlyRejects(t *testing.T) {
	s := newSched(t, 4, EDF, IITDLT{})
	rec := &stageRecorder{}
	s.SetStageObserver(rec)

	// Fast-reject path: the deadline is below the bare sequential
	// transmission time, so admission resolves at the index probe.
	if ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 1000, RelDeadline: 1}, 0); err != nil || ok {
		t.Fatalf("hopeless task: Submit = %v, %v", ok, err)
	}
	for _, st := range []Stage{StageCandidate, StagePlan, StageCheck} {
		if got := rec.count(st); got != 1 {
			t.Fatalf("after fast-reject: stage %v observed %d times, want 1", st, got)
		}
	}

	// Fleet-down path: no placeable node, rejected before the plan loop.
	for id := 0; id < 4; id++ {
		if _, err := s.SetNodeState(id, cluster.NodeDown, 0); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := s.Submit(&Task{ID: 2, Arrival: 0, Sigma: 100, RelDeadline: 5000}, 0); err != nil || ok {
		t.Fatalf("fleet-down task: Submit = %v, %v", ok, err)
	}
	for _, st := range []Stage{StageCandidate, StagePlan, StageCheck} {
		if got := rec.count(st); got != 2 {
			t.Fatalf("after fleet-down reject: stage %v observed %d times, want 2", st, got)
		}
	}

	// Both early paths do no planning or checking: their spans are the
	// explicit zeros, while the candidate span carries the elapsed time.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, st := range []Stage{StagePlan, StageCheck} {
		for i, sec := range rec.spans[st] {
			if sec != 0 {
				t.Fatalf("early reject %d: stage %v span = %g, want explicit 0", i, st, sec)
			}
		}
	}
	if st := s.Stats(); st.Rejects != 2 || st.Arrivals != 2 {
		t.Fatalf("stats = %+v, want 2 arrivals / 2 rejects", st)
	}
}

// TestStageSpansAfterLateObserverInstall: a StageObserver installed after
// the scheduler has already decided, on a state it keeps from that
// decision, gets one candidate/plan/check sample from the very next test.
func TestStageSpansAfterLateObserverInstall(t *testing.T) {
	s := newSched(t, 4, EDF, IITDLT{})
	if ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 1000, RelDeadline: 1}, 0); err != nil || ok {
		t.Fatalf("hopeless task: accepted=%v err=%v", ok, err)
	}
	rec := &stageRecorder{}
	s.SetStageObserver(rec)
	if ok, err := s.Submit(&Task{ID: 2, Arrival: 0, Sigma: 100, RelDeadline: 5000}, 0); err != nil || !ok {
		t.Fatalf("feasible task: accepted=%v err=%v", ok, err)
	}
	for _, st := range []Stage{StageCandidate, StagePlan, StageCheck} {
		if got := rec.count(st); got != 1 {
			t.Fatalf("stage %v observed %d times after the observer was installed, want 1", st, got)
		}
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageCandidate: "candidate",
		StagePlan:      "plan",
		StageCheck:     "check",
		StageCommit:    "commit",
		Stage(99):      "unknown",
	}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("Stage(%d).String() = %q, want %q", st, st.String(), s)
		}
	}
}
