package driver

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// refSim is the discrete-event engine referenceRun drives: a priority
// queue of timed callbacks with cancellable handles. Events at equal
// times run by priority (lower first), then in scheduling order, so a run
// is fully deterministic. Run itself needs no heap; this copy keeps
// exactly what the reference calls.
type refSim struct {
	now float64
	q   eventHeap
	seq uint64
}

// Tie-breaking priorities: commits run before arrivals at one instant.
const (
	prioCommit  int8 = -1
	prioArrival int8 = 1
)

type event struct {
	time     float64
	prio     int8
	seq      uint64
	fn       func()
	canceled bool
}

// refHandle identifies a scheduled event. Cancel on a run, cancelled or
// zero handle is a no-op.
type refHandle struct{ ev *event }

func (h refHandle) Cancel() {
	if h.ev != nil {
		h.ev.canceled = true
	}
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
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return ev
}

func newRefSim() *refSim { return &refSim{} }

// Now returns the time of the event currently executing.
func (s *refSim) Now() float64 { return s.now }

// AtPrio schedules fn at time t. It panics on a non-finite or past time
// and on a nil callback: each is a simulation bug.
func (s *refSim) AtPrio(t float64, prio int8, fn func()) refHandle {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("refSim: scheduling at non-finite time %v", t))
	}
	if t < s.now {
		panic(fmt.Sprintf("refSim: scheduling into the past: t=%v < now=%v", t, s.now))
	}
	if fn == nil {
		panic("refSim: scheduling a nil callback")
	}
	ev := &event{time: t, prio: prio, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.q, ev)
	return refHandle{ev}
}

// Step runs the next pending event, advancing the clock to its time. It
// returns false once no events remain.
func (s *refSim) Step() bool {
	for len(s.q) > 0 {
		ev := heap.Pop(&s.q).(*event)
		if ev.canceled {
			continue
		}
		s.now = ev.time
		ev.fn()
		return true
	}
	return false
}

// runRefSim steps s until no events remain.
func runRefSim(s *refSim) {
	for s.Step() {
	}
}

func TestRefSimTimeOrder(t *testing.T) {
	s := newRefSim()
	var got []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		s.AtPrio(tm, prioArrival, func() { got = append(got, tm) })
	}
	runRefSim(s)
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestRefSimPriorityOrder(t *testing.T) {
	s := newRefSim()
	var got []string
	s.AtPrio(1, prioArrival, func() { got = append(got, "arrival") })
	s.AtPrio(1, prioCommit, func() { got = append(got, "commit") })
	runRefSim(s)
	if len(got) != 2 || got[0] != "commit" || got[1] != "arrival" {
		t.Fatalf("order %v, want [commit arrival]", got)
	}
}

func TestRefSimEqualPrioFIFO(t *testing.T) {
	s := newRefSim()
	var got []int
	for i := 0; i < 10; i++ {
		s.AtPrio(7, prioArrival, func() { got = append(got, i) })
	}
	runRefSim(s)
	for i, v := range got {
		if v != i {
			t.Fatalf("scheduling order not preserved: %v", got)
		}
	}
}

func TestRefSimCancel(t *testing.T) {
	s := newRefSim()
	ran := false
	h := s.AtPrio(1, prioCommit, func() { ran = true })
	h.Cancel()
	runRefSim(s)
	if ran {
		t.Fatalf("cancelled event ran")
	}
	// Cancelling again and cancelling the zero handle are no-ops.
	h.Cancel()
	refHandle{}.Cancel()
}

// TestRefSimScheduleFromWithinEvent: an event may schedule another at its
// own instant, as referenceRun re-arms its commit from inside a commit.
func TestRefSimScheduleFromWithinEvent(t *testing.T) {
	s := newRefSim()
	var got []float64
	s.AtPrio(1, prioArrival, func() {
		got = append(got, s.Now())
		s.AtPrio(s.Now()+2, prioArrival, func() { got = append(got, s.Now()) })
		s.AtPrio(s.Now(), prioArrival, func() { got = append(got, s.Now()) })
	})
	runRefSim(s)
	want := []float64{1, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRefSimPanics(t *testing.T) {
	s := newRefSim()
	s.AtPrio(5, prioArrival, func() {})
	runRefSim(s) // now = 5
	for name, fn := range map[string]func(){
		"past":     func() { s.AtPrio(4, prioArrival, func() {}) },
		"NaN":      func() { s.AtPrio(math.NaN(), prioArrival, func() {}) },
		"posInf":   func() { s.AtPrio(math.Inf(1), prioArrival, func() {}) },
		"nil func": func() { s.AtPrio(6, prioArrival, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

// TestRefSimOrderingProperty: random schedules always execute in
// non-decreasing time order with ties broken by (prio, insertion order).
func TestRefSimOrderingProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		n := 1 + int(nRaw%300)
		s := newRefSim()
		type key struct {
			tm   float64
			prio int8
			seq  int
		}
		var got []key
		for i := 0; i < n; i++ {
			tm := float64(rng.IntN(20))
			prio := int8(rng.IntN(3) - 1)
			k := key{tm, prio, i}
			s.AtPrio(tm, prio, func() { got = append(got, k) })
		}
		if len(got) != 0 {
			return false
		}
		runRefSim(s)
		if len(got) != n {
			return false
		}
		for i := 1; i < n; i++ {
			a, b := got[i-1], got[i]
			if a.tm > b.tm {
				return false
			}
			if a.tm == b.tm && a.prio > b.prio {
				return false
			}
			if a.tm == b.tm && a.prio == b.prio && a.seq > b.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRefSimCancelProperty: cancelled events never run, everything else
// runs exactly once.
func TestRefSimCancelProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 1 + int(nRaw%200)
		s := newRefSim()
		ran := make([]int, n)
		handles := make([]refHandle, n)
		for i := 0; i < n; i++ {
			handles[i] = s.AtPrio(float64(rng.IntN(50)), prioArrival, func() { ran[i]++ })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < n/3; i++ {
			j := rng.IntN(n)
			handles[j].Cancel()
			cancelled[j] = true
		}
		runRefSim(s)
		for i, r := range ran {
			if cancelled[i] && r != 0 {
				return false
			}
			if !cancelled[i] && r != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
