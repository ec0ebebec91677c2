package rt

import (
	"testing"
)

// panickyPartitioner is DLT-IIT with a fault: its panicAt-th Plan call
// panics.
type panickyPartitioner struct {
	IITDLT
	calls, panicAt int
}

func (p *panickyPartitioner) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if p.calls++; p.calls == p.panicAt {
		panic("injected partitioner fault")
	}
	return p.IITDLT.Plan(ctx, t)
}

// TestPanicMidTailLeavesState injects a panic into the second fresh plan of
// a test that replans a tail of at least three, and recovers it as the
// server's middleware does. The schedule is as the submit found it — the
// queue, its summary, the overlay back at a checkpoint that the waiting
// plans take to the mark it had — the plan pool holds no live plan, and every decision after it, plan for plan, equals that of a
// scheduler that never saw the submit.
func TestPanicMidTailLeavesState(t *testing.T) {
	stream := make([]Task, 200)
	for i := range stream {
		id := int64(i + 1)
		stream[i] = Task{ID: id, Arrival: float64(id) * 15, Sigma: 30 + float64((id*37)%350),
			RelDeadline: 500 + float64((id*91)%6000)}
	}
	submit := func(s *Scheduler, task Task) (bool, error) {
		if _, err := s.CommitDue(task.Arrival); err != nil {
			t.Fatal(err)
		}
		return s.Submit(&task, task.Arrival)
	}

	// Probe: the first submit after a warm-up that computes three or more
	// fresh plans, and the Plan calls made before it.
	probe := newSched(t, 16, EDF, &panickyPartitioner{})
	victim, callsBefore := -1, 0
	for i, task := range stream {
		before, _ := probe.PlanCounts()
		if _, err := submit(probe, task); err != nil {
			t.Fatal(err)
		}
		if after, _ := probe.PlanCounts(); i >= 20 && after-before >= 3 {
			victim, callsBefore = i, probe.part.(*panickyPartitioner).calls-int(after-before)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no submit in the stream replans a tail of three")
	}

	ref := newSched(t, 16, EDF, IITDLT{})
	part := &panickyPartitioner{}
	s := newSched(t, 16, EDF, part)
	for i, task := range stream {
		if i != victim {
			oka, ea := submit(s, task)
			okb, eb := submit(ref, task)
			if oka != okb || !errEqual(ea, eb) || !planEqual(s.PlanFor(task.ID), ref.PlanFor(task.ID)) {
				t.Fatalf("task %d: (%v, %v), the reference says (%v, %v)", task.ID, oka, ea, okb, eb)
			}
			if sa, sb := s.Stats(), ref.Stats(); sa != sb {
				t.Fatalf("task %d: stats %+v, the reference %+v", task.ID, sa, sb)
			}
			checkPlanOwnership(t, "after a submit", s)
			continue
		}
		if _, err := s.CommitDue(task.Arrival); err != nil {
			t.Fatal(err)
		}
		q := &s.q
		queue, applied, mark, sum := append(schedule(nil), q.queue...), q.applied, q.view.Mark(), summary(q)
		part.panicAt = callsBefore + 2
		panicked := func() (p any) {
			defer func() { p = recover() }()
			s.Submit(&task, task.Arrival) //nolint:errcheck // it panics
			return nil
		}()
		if panicked == nil {
			t.Fatal("the injected fault did not panic")
		}
		if part.calls != part.panicAt {
			t.Fatalf("%d Plan calls, the fault was at %d", part.calls, part.panicAt)
		}
		if len(q.queue) != len(queue) {
			t.Fatalf("the queue holds %d tasks after the panic, %d before", len(q.queue), len(queue))
		}
		for j := range queue {
			if q.queue[j] != queue[j] {
				t.Fatalf("waiting task %d: %+v after the panic, %+v before", j, q.queue[j], queue[j])
			}
		}
		// The overlay is rolled back to a checkpoint of the queue, as after
		// any reject, and the waiting plans on top of it take it back to the
		// mark it had.
		if q.applied > applied {
			t.Fatalf("the overlay holds %d plans after the panic, %d before", q.applied, applied)
		}
		if q.seek(len(q.queue)); q.view.Mark() != mark {
			t.Fatalf("the overlay with every waiting plan applied ends at mark %d, at %d before the panic", q.view.Mark(), mark)
		}
		if got := summary(q); got != sum {
			t.Fatalf("the queue's summary is %+v after the panic, %+v before", got, sum)
		}
		checkPlanOwnership(t, "after the panic", s)
	}
}
