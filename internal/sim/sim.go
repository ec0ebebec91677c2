// Package sim provides a small deterministic discrete-event simulation
// engine: a priority queue of timed callbacks with stable ordering and
// cancellable handles.
//
// Events at equal timestamps are ordered first by an explicit priority
// (lower runs first) and then by scheduling order, so simulations are fully
// deterministic. The driver uses priorities to process task commitments
// before arrivals that share a timestamp.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Priorities used by the scheduling driver. Any int8 is accepted; these
// names document the convention.
const (
	PrioCommit  int8 = -1 // task start / node handover events
	PrioDefault int8 = 0
	PrioArrival int8 = 1 // workload arrivals
)

type event struct {
	time     float64
	prio     int8
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
}

// Handle identifies a scheduled event and allows cancelling it.
type Handle struct{ ev *event }

// Cancel prevents the event from running. Cancelling an already-run or
// already-cancelled event is a no-op. Cancel on a zero Handle is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.canceled = true
	}
}

// Pending reports whether the event is still queued to run.
func (h Handle) Pending() bool {
	return h.ev != nil && !h.ev.canceled && h.ev.index >= 0
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Simulator is a discrete-event simulator. The zero value is ready to use
// with the clock at 0.
type Simulator struct {
	now  float64
	q    eventHeap
	seq  uint64
	step uint64
}

// New returns a simulator with its clock at 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Len returns the number of pending (non-cancelled) events. Cancelled
// events still occupying the queue are not counted.
func (s *Simulator) Len() int {
	n := 0
	for _, ev := range s.q {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() uint64 { return s.step }

// At schedules fn to run at time t with default priority. It panics if t is
// in the past or not a finite number: scheduling into the past is always a
// simulation bug.
func (s *Simulator) At(t float64, fn func()) Handle {
	return s.AtPrio(t, PrioDefault, fn)
}

// AtPrio schedules fn at time t with an explicit tie-breaking priority
// (lower priorities run first among events with equal time).
func (s *Simulator) AtPrio(t float64, prio int8, fn func()) Handle {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", t))
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: t=%v < now=%v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	ev := &event{time: t, prio: prio, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.q, ev)
	return Handle{ev}
}

// After schedules fn to run d time units from now.
func (s *Simulator) After(d float64, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false if no events remain.
func (s *Simulator) Step() bool {
	for len(s.q) > 0 {
		ev := heap.Pop(&s.q).(*event)
		if ev.canceled {
			continue
		}
		s.now = ev.time
		s.step++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes all events with time ≤ t, then advances the clock to t
// (if it is not already past it). Events scheduled for later remain queued.
func (s *Simulator) RunUntil(t float64) {
	for {
		ev := s.peek()
		if ev == nil || ev.time > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// peek returns the next non-cancelled event without running it, or nil.
func (s *Simulator) peek() *event {
	for len(s.q) > 0 {
		if s.q[0].canceled {
			heap.Pop(&s.q)
			continue
		}
		return s.q[0]
	}
	return nil
}

// NextTime returns the time of the next pending event, or (0, false) if the
// queue is empty.
func (s *Simulator) NextTime() (float64, bool) {
	ev := s.peek()
	if ev == nil {
		return 0, false
	}
	return ev.time, true
}
