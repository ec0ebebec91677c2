package rt

import (
	"errors"
	"testing"

	"rtdls/internal/cluster"
)

// erringPartitioner is DLT-IIT with a fault: its failAt-th Plan call
// returns a hard error.
type erringPartitioner struct {
	IITDLT
	calls, failAt int
}

var errInjected = errors.New("injected partitioner error")

func (p *erringPartitioner) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if p.calls++; p.calls == p.failAt {
		return nil, errInjected
	}
	return p.IITDLT.Plan(ctx, t)
}

// TestRevalidateFaultLeavesState drains node 3 of a 16-node scheduler with
// 14 tasks waiting while the revalidation's third Plan call panics, or
// errs, and recovers a panic as the server's middleware does. The drain is
// all-or-nothing: the 14 tasks still wait on the plans they had, node 3 is
// up, and the next 50 decisions equal, plan for plan, those of a scheduler
// that never saw the drain.
func TestRevalidateFaultLeavesState(t *testing.T) {
	stream := make([]Task, 90)
	for i := range stream {
		id := int64(i + 1)
		stream[i] = Task{ID: id, Arrival: float64(id) * 200, Sigma: 50 + float64((id*37)%250),
			RelDeadline: 12000 + float64((id*91)%4000)}
	}
	submit := func(s *Scheduler, task Task) (bool, error) {
		if _, err := s.CommitDue(task.Arrival); err != nil {
			t.Fatal(err)
		}
		return s.Submit(&task, task.Arrival)
	}
	pp, ep := &panickyPartitioner{}, &erringPartitioner{}
	for _, c := range []struct {
		fault string
		part  Partitioner
		arm   func() // faults the third Plan call from now on
	}{
		{"panic", pp, func() { pp.panicAt = pp.calls + 3 }},
		{"error", ep, func() { ep.failAt = ep.calls + 3 }},
	} {
		t.Run(c.fault, func(t *testing.T) {
			s, ref := newSched(t, 16, EDF, c.part), newSched(t, 16, EDF, IITDLT{})
			for _, task := range stream[:40] {
				if _, err := submit(s, task); err != nil {
					t.Fatal(err)
				}
				if _, err := submit(ref, task); err != nil {
					t.Fatal(err)
				}
			}
			if n := s.QueueLen(); n != 14 {
				t.Fatalf("%d tasks waiting after 40 submits, want 14", n)
			}
			queue := append(schedule(nil), s.q.queue...)
			c.arm()
			var err error
			panicked := func() (p any) {
				defer func() { p = recover() }()
				_, err = s.SetNodeState(3, cluster.NodeDraining, stream[39].Arrival)
				return nil
			}()
			if (c.fault == "panic") != (panicked != nil) || (c.fault == "error") != errors.Is(err, errInjected) {
				t.Fatalf("the drain returned %v and panicked with %v; the fault was a %s", err, panicked, c.fault)
			}
			if len(s.q.queue) != len(queue) {
				t.Fatalf("%d tasks waiting after the fault, %d before", len(s.q.queue), len(queue))
			}
			for j := range queue {
				if s.q.queue[j].task != queue[j].task || s.q.queue[j].plan != queue[j].plan {
					t.Fatalf("waiting task %d: %+v after the fault, %+v before", j, s.q.queue[j], queue[j])
				}
			}
			if st := s.cl.NodeStateList()[3]; st != cluster.NodeUp {
				t.Fatalf("node 3 is %v after the failed drain, want up", st)
			}
			checkPlanOwnership(t, "after the fault", s)
			for _, task := range stream[40:] {
				oka, ea := submit(s, task)
				okb, eb := submit(ref, task)
				if oka != okb || !errEqual(ea, eb) || !planEqual(s.PlanFor(task.ID), ref.PlanFor(task.ID)) {
					t.Fatalf("task %d: (%v, %v), the reference says (%v, %v)", task.ID, oka, ea, okb, eb)
				}
				if sa, sb := s.Stats(), ref.Stats(); sa != sb {
					t.Fatalf("task %d: stats %+v, the reference %+v", task.ID, sa, sb)
				}
			}
		})
	}
}
