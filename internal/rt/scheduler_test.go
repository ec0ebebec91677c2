package rt

import (
	"math"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
)

func newSched(t *testing.T, n int, pol Policy, part Partitioner) *Scheduler {
	t.Helper()
	cl, err := cluster.New(n, baseline)
	if err != nil {
		t.Fatal(err)
	}
	return NewScheduler(cl, pol, part)
}

func TestSubmitAcceptsFeasibleTask(t *testing.T) {
	s := newSched(t, 16, EDF, IITDLT{})
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 2718}, 0)
	if err != nil || !ok {
		t.Fatalf("Submit = %v, %v", ok, err)
	}
	if st := s.Stats(); st.Arrivals != 1 || st.Accepts != 1 || st.Rejects != 0 {
		t.Fatalf("counters: %d/%d/%d", st.Arrivals, st.Accepts, st.Rejects)
	}
	if st := s.Stats(); st.QueueLen != 1 {
		t.Fatalf("QueueLen = %d", st.QueueLen)
	}
	if pl := s.PlanFor(1); pl == nil || pl.Task.ID != 1 {
		t.Fatalf("PlanFor(1) = %v", pl)
	}
}

func TestSubmitRejectsInfeasibleTask(t *testing.T) {
	s := newSched(t, 16, EDF, IITDLT{})
	// Deadline below the transmission time of the data.
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("infeasible task accepted")
	}
	if st := s.Stats(); st.Arrivals != 1 || st.Rejects != 1 || st.QueueLen != 0 {
		t.Fatalf("arrivals=%d rejects=%d queue=%d", st.Arrivals, st.Rejects, st.QueueLen)
	}
}

func TestSubmitValidatesInput(t *testing.T) {
	s := newSched(t, 4, EDF, IITDLT{})
	if _, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: -1, RelDeadline: 10}, 0); err == nil {
		t.Fatalf("invalid task must error")
	}
	if _, err := s.Submit(&Task{ID: 1, Arrival: 10, Sigma: 1, RelDeadline: 10}, 0); err == nil {
		t.Fatalf("submitting before arrival must error")
	}
	ok, err := s.Submit(&Task{ID: 7, Arrival: 0, Sigma: 1, RelDeadline: 1e6}, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if _, err := s.Submit(&Task{ID: 7, Arrival: 0, Sigma: 1, RelDeadline: 1e6}, 0); err == nil {
		t.Fatalf("duplicate waiting ID must error")
	}
}

func TestRejectionKeepsExistingSchedule(t *testing.T) {
	s := newSched(t, 16, EDF, IITDLT{})
	// Fill the cluster with a heavy task whose deadline forces all 16
	// nodes (E(2000,16) ≈ 13589) and precedes the next task's under EDF.
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 2000, RelDeadline: 14000}, 0)
	if err != nil || !ok {
		t.Fatalf("heavy task: %v %v", ok, err)
	}
	before := s.PlanFor(1)
	// A second heavy task with a slightly later deadline cannot fit behind
	// the first.
	ok, err = s.Submit(&Task{ID: 2, Arrival: 0, Sigma: 2000, RelDeadline: 15000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("expected rejection")
	}
	after := s.PlanFor(1)
	if after == nil || after != before {
		t.Fatalf("rejection must not replace existing plans")
	}
	if st := s.Stats(); st.QueueLen != 1 {
		t.Fatalf("queue corrupted by rejection: %d", st.QueueLen)
	}
}

func TestEDFReordersQueue(t *testing.T) {
	s := newSched(t, 16, EDF, IITDLT{})
	// Task 1: loose deadline, arrives first.
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 400, RelDeadline: 1e6}, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Task 2: much tighter deadline, arrives second; EDF plans it first so
	// it gets the idle nodes.
	ok, err = s.Submit(&Task{ID: 2, Arrival: 0, Sigma: 200, RelDeadline: 2718}, 0)
	if err != nil || !ok {
		t.Fatalf("EDF should accept the tighter task: %v %v", ok, err)
	}
	p1, p2 := s.PlanFor(1), s.PlanFor(2)
	if p2.FirstStart() > p1.FirstStart() {
		t.Fatalf("EDF should start the tight task first: %v vs %v",
			p2.FirstStart(), p1.FirstStart())
	}
	if p2.Est > p2.Task.AbsDeadline()+1e-6 {
		t.Fatalf("tight task misses deadline after reordering")
	}
}

func TestFIFOKeepsArrivalOrder(t *testing.T) {
	s := newSched(t, 16, FIFO, IITDLT{})
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 400, RelDeadline: 1e6}, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Tighter task arrives later: FIFO plans it behind task 1 and may have
	// to reject it even though EDF would save it.
	ok, err = s.Submit(&Task{ID: 2, Arrival: 0, Sigma: 200, RelDeadline: 2718}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		p1, p2 := s.PlanFor(1), s.PlanFor(2)
		if p2.FirstStart() < p1.FirstStart()-1e-9 {
			t.Fatalf("FIFO must not start a later arrival first")
		}
	} else if s.Stats().Rejects != 1 {
		t.Fatalf("rejection not counted")
	}
}

func TestCommitLifecycle(t *testing.T) {
	s := newSched(t, 16, EDF, IITDLT{})
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 200, RelDeadline: 2718}, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	at, hasCommit := s.NextCommit()
	if !hasCommit || at != 0 {
		t.Fatalf("NextCommit = %v,%v; want 0,true", at, hasCommit)
	}
	plans, err := s.CommitDue(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Task.ID != 1 {
		t.Fatalf("CommitDue = %v", plans)
	}
	if st := s.Stats(); st.QueueLen != 0 || st.Commits != 1 {
		t.Fatalf("queue=%d commits=%d", st.QueueLen, st.Commits)
	}
	if _, has := s.NextCommit(); has {
		t.Fatalf("no commits should remain")
	}
	// Cluster must now show the committed usage.
	avails := s.Cluster().AvailInto(nil)
	busy := 0
	for _, a := range avails {
		if a > 0 {
			busy++
		}
	}
	if busy != len(plans[0].Nodes) {
		t.Fatalf("%d nodes busy, want %d", busy, len(plans[0].Nodes))
	}
}

func TestCommitNotDueEarly(t *testing.T) {
	s := newSched(t, 4, EDF, IITDLT{})
	// Occupy the whole cluster first (ñ_min = 4 for this deadline) so the
	// next task starts later.
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 500, RelDeadline: 13000}, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if _, err := s.CommitDue(0); err != nil {
		t.Fatal(err)
	}
	ok, err = s.Submit(&Task{ID: 2, Arrival: 0, Sigma: 500, RelDeadline: 30000}, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	at, has := s.NextCommit()
	if !has || at <= 0 {
		t.Fatalf("second task should start later, NextCommit=%v", at)
	}
	plans, err := s.CommitDue(at / 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 0 {
		t.Fatalf("committed before due: %v", plans)
	}
	plans, err = s.CommitDue(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("due commit missed")
	}
}

func TestWaitingTaskReplannedOnArrival(t *testing.T) {
	s := newSched(t, 16, EDF, IITDLT{})
	ok, err := s.Submit(&Task{ID: 1, Arrival: 0, Sigma: 800, RelDeadline: 1e8}, 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if _, err := s.CommitDue(0); err != nil { // commit the running task
		t.Fatal(err)
	}
	ok, err = s.Submit(&Task{ID: 2, Arrival: 10, Sigma: 400, RelDeadline: 1e8}, 10)
	if err != nil || !ok {
		t.Fatal(err)
	}
	planBefore := s.PlanFor(2)
	// A new arrival with an earlier deadline forces task 2 to be replanned.
	ok, err = s.Submit(&Task{ID: 3, Arrival: 20, Sigma: 100, RelDeadline: 40000}, 20)
	if err != nil || !ok {
		t.Fatal(err)
	}
	planAfter := s.PlanFor(2)
	if planAfter == planBefore {
		t.Fatalf("waiting task plan must be rebuilt on arrival")
	}
}

// TestNoAdmittedDeadlineMiss floods a small cluster and verifies the
// paper's correctness property end to end at the scheduler level: every
// committed plan's exact dispatch meets its absolute deadline.
func TestNoAdmittedDeadlineMiss(t *testing.T) {
	for _, pol := range []Policy{EDF, FIFO} {
		for _, part := range []Partitioner{IITDLT{}, OPR{}, UserSplit{}} {
			s := newSched(t, 8, pol, part)
			now := 0.0
			id := int64(0)
			for i := 0; i < 400; i++ {
				id++
				task := &Task{
					ID:          id,
					Arrival:     now,
					Sigma:       50 + float64((i*37)%400),
					RelDeadline: 3000 + float64((i*113)%4000),
				}
				if nmin, feas := dlt.UserSplitMinNodes(baseline, task.Sigma, task.RelDeadline); feas && nmin <= 8 {
					task.UserN = nmin + int(id)%(8-nmin+1)
				}
				if _, err := s.Submit(task, now); err != nil {
					t.Fatalf("%v/%s: %v", pol, part.Name(), err)
				}
				plans, err := s.CommitDue(now)
				if err != nil {
					t.Fatalf("%v/%s: %v", pol, part.Name(), err)
				}
				checkPlansMeetDeadlines(t, plans)
				now += 150
			}
			// Drain the queue.
			for s.Stats().QueueLen > 0 {
				at, ok := s.NextCommit()
				if !ok {
					t.Fatalf("queue nonempty but no commit pending")
				}
				now = math.Max(now, at)
				plans, err := s.CommitDue(now)
				if err != nil {
					t.Fatal(err)
				}
				checkPlansMeetDeadlines(t, plans)
			}
		}
	}
}

func checkPlansMeetDeadlines(t *testing.T, plans []*Plan) {
	t.Helper()
	for _, pl := range plans {
		absD := pl.Task.AbsDeadline()
		if pl.Est > absD+1e-6*math.Max(1, absD) {
			t.Fatalf("committed plan estimate %v misses deadline %v", pl.Est, absD)
		}
		if pl.Rounds == 1 {
			// The exact dispatch completion is bounded by the estimate for
			// every single-round partitioner (Theorem 4 for dlt-iit, exact
			// equality for OPR at r_n, exact recurrence for user-split), so
			// it must also meet the deadline.
			d, err := dlt.SimulateDispatch(baseline, pl.Task.Sigma, pl.Starts, pl.Alphas)
			if err != nil {
				t.Fatal(err)
			}
			if d.Completion > absD+1e-6*math.Max(1, absD) {
				t.Fatalf("committed plan actually misses deadline: %v > %v", d.Completion, absD)
			}
		}
	}
}
