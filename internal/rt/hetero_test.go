package rt

import (
	"math"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
)

func heteroCluster(t *testing.T, costs []dlt.NodeCost) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.NewHetero(costs)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

var heteroFour = []dlt.NodeCost{
	{Cms: 1, Cps: 100},
	{Cms: 1, Cps: 400}, // slow CPU
	{Cms: 2, Cps: 50},  // slow link, fast CPU
	{Cms: 0, Cps: 200}, // free link
}

// submitOK submits a task and requires admission.
func submitOK(t *testing.T, s *Scheduler, task *Task, now float64) *Plan {
	t.Helper()
	acc, err := s.Submit(task, now)
	if err != nil {
		t.Fatal(err)
	}
	if !acc {
		t.Fatalf("task %d unexpectedly rejected", task.ID)
	}
	return s.PlanFor(task.ID)
}

// TestHeteroPlansRespectCosts: each partitioner on a heterogeneous cluster
// produces a plan whose estimate matches its own exact dispatch semantics
// and meets the deadline.
func TestHeteroPlansRespectCosts(t *testing.T) {
	for _, part := range []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}} {
		cl := heteroCluster(t, heteroFour)
		s := NewScheduler(cl, EDF, part)
		task := &Task{ID: 1, Arrival: 0, Sigma: 100, RelDeadline: 40000}
		pl := submitOK(t, s, task, 0)
		if pl == nil {
			t.Fatalf("%s: missing plan", part.Name())
		}
		if pl.Est > task.AbsDeadline() {
			t.Fatalf("%s: estimate %v past deadline", part.Name(), pl.Est)
		}
		if !pl.SimultaneousStart {
			// IIT-style plan: Est is the exact staggered dispatch
			// completion under per-node costs.
			d, err := dlt.SimulateDispatchHetero(cl.Costs().SelectInto(nil, pl.Nodes), task.Sigma, pl.Starts, pl.Alphas)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(d.Completion-pl.Est) > 1e-9*math.Max(1, pl.Est) {
				t.Fatalf("%s: Est=%v but exact dispatch completes at %v", part.Name(), pl.Est, d.Completion)
			}
		}
		sum := 0.0
		for _, a := range pl.Alphas {
			sum += a
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("%s: alphas sum to %v", part.Name(), sum)
		}
	}
}

// TestHeteroUserSplit: the User-Split practice on a heterogeneous cluster
// uses equal chunks and the exact per-node finish times.
func TestHeteroUserSplit(t *testing.T) {
	cl := heteroCluster(t, heteroFour)
	s := NewScheduler(cl, EDF, UserSplit{})
	task := &Task{ID: 1, Arrival: 0, Sigma: 100, RelDeadline: 60000, UserN: 4}
	pl := submitOK(t, s, task, 0)
	for _, a := range pl.Alphas {
		if a != 0.25 {
			t.Fatalf("user-split must use equal chunks: %v", pl.Alphas)
		}
	}
	d, err := dlt.SimulateDispatchHetero(cl.Costs().SelectInto(nil, pl.Nodes), task.Sigma, pl.Starts, pl.Alphas)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Est != d.Completion {
		t.Fatalf("user-split Est=%v, want exact %v", pl.Est, d.Completion)
	}
}

// TestHeteroIdenticalDeadlines: two tasks with the same absolute deadline
// on a heterogeneous cluster exercise the EDF tie-break (arrival, then ID);
// both must be admitted and committed without overlap.
func TestHeteroIdenticalDeadlines(t *testing.T) {
	cl := heteroCluster(t, heteroFour)
	s := NewScheduler(cl, EDF, IITDLT{})
	a := &Task{ID: 1, Arrival: 0, Sigma: 60, RelDeadline: 50000}
	b := &Task{ID: 2, Arrival: 0, Sigma: 60, RelDeadline: 50000}
	if a.AbsDeadline() != b.AbsDeadline() {
		t.Fatalf("test setup: deadlines differ")
	}
	submitOK(t, s, a, 0)
	submitOK(t, s, b, 0)
	if !s.pol.Less(a, b) || s.pol.Less(b, a) {
		t.Fatalf("identical deadlines must tie-break to the lower ID first")
	}
	plans, err := s.CommitDue(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("committed %d plans, want 2", len(plans))
	}
}

// TestHeteroSingleFreeNode: a one-node heterogeneous "cluster" (the
// degenerate free-node case) admits exactly what fits sequentially.
func TestHeteroSingleFreeNode(t *testing.T) {
	cl := heteroCluster(t, []dlt.NodeCost{{Cms: 2, Cps: 30}})
	if !cl.Hetero() {
		// A single node is trivially uniform; the point is the pipeline
		// still works end to end through the uniform fast path.
		t.Logf("single-node cluster is uniform, as expected")
	}
	s := NewScheduler(cl, EDF, IITDLT{})
	// σ(Cms+Cps) = 10·32 = 320.
	fits := &Task{ID: 1, Arrival: 0, Sigma: 10, RelDeadline: 320}
	submitOK(t, s, fits, 0)
	tooTight := &Task{ID: 2, Arrival: 0, Sigma: 10, RelDeadline: 300}
	acc, err := s.Submit(tooTight, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc {
		t.Fatalf("task needing 320 time units must be rejected at deadline 300 behind task 1")
	}
}

// TestHeteroSingleSlowNodeGeneralPath exercises the genuinely
// heterogeneous single-free-node case by pairing a workhorse with an
// unusably slow straggler: every plan should avoid the straggler while the
// workhorse is free.
func TestHeteroSingleSlowNodeGeneralPath(t *testing.T) {
	cl := heteroCluster(t, []dlt.NodeCost{
		{Cms: 1, Cps: 50},
		{Cms: 1e6, Cps: 1e6}, // near-zero bandwidth and compute
	})
	if !cl.Hetero() {
		t.Fatalf("cluster must be heterogeneous")
	}
	s := NewScheduler(cl, EDF, IITDLT{})
	task := &Task{ID: 1, Arrival: 0, Sigma: 10, RelDeadline: 600}
	pl := submitOK(t, s, task, 0)
	if len(pl.Nodes) != 1 || pl.Nodes[0] != 0 {
		t.Fatalf("plan should use only the workhorse node: %v", pl.Nodes)
	}
}

// TestHeteroSchedulerDrain: a stream of tasks over a heterogeneous cluster
// commits cleanly and never double-books a node (cluster.Commit would
// error).
func TestHeteroSchedulerDrain(t *testing.T) {
	cl := heteroCluster(t, heteroFour)
	s := NewScheduler(cl, EDF, IITDLT{})
	now := 0.0
	id := int64(0)
	for i := 0; i < 50; i++ {
		id++
		task := &Task{ID: id, Arrival: now, Sigma: 20 + float64(i%7)*30, RelDeadline: 30000}
		if _, err := s.Submit(task, now); err != nil {
			t.Fatal(err)
		}
		if at, ok := s.NextCommit(); ok && at <= now {
			if _, err := s.CommitDue(now); err != nil {
				t.Fatal(err)
			}
		}
		now += 400
	}
	for s.Stats().QueueLen > 0 {
		at, ok := s.NextCommit()
		if !ok {
			t.Fatalf("%d tasks stuck without a commit time", s.Stats().QueueLen)
		}
		now = math.Max(now, at)
		if _, err := s.CommitDue(now); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Commits != st.Accepts {
		t.Fatalf("%d commits != %d accepts", st.Commits, st.Accepts)
	}
}
