package rt

import (
	"math"
	"slices"
	"testing"
)

// The soundness property of the demand bound over random saturated streams
// is in demand_prop_test.go; this file pins the cases a random stream meets
// too rarely: the hard error the bound must leave alone, the numeric ranges
// in which it must abstain, and the capacity formula itself.

// saturate books every node until `until` and fills the queue behind it with
// accepted tasks due at `due` and later, until the next one is rejected.
func saturate(t *testing.T, s *Scheduler, now, until, due float64, userN int) {
	t.Helper()
	cl := s.Cluster()
	for id := 0; id < cl.N(); id++ {
		if err := cl.Commit([]int{id}, []float64{now}, []float64{until}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id < 1000; id++ {
		ok, err := s.Submit(&Task{ID: id, Arrival: now, Sigma: 100, RelDeadline: due + float64(id) - now, UserN: userN}, now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if id < 4 {
				t.Fatalf("only %d tasks fit before the queue saturated", id-1)
			}
			return
		}
	}
	t.Fatal("the queue never saturated")
}

// TestDemandBoundLeavesHardError: a User-Split request for more nodes than
// are live is a hard error, not a reject, however plain it is that the
// saturated queue behind the arrival has no room for it, while the same
// arrival under a partitioner that ignores UserN is a reject the bound
// decides, with no plan.
func TestDemandBoundLeavesHardError(t *testing.T) {
	const n = 6
	us := newSched(t, n, EDF, UserSplit{})
	saturate(t, us, 0, 500, 12000, n)
	before, decidedUS := us.Stats(), us.DemandRejects()
	// Ordered in front of the whole queue, and one load too many for it.
	task := &Task{ID: 5000, Arrival: 0, Sigma: 100, RelDeadline: 3000, UserN: n + 1}
	if ok, err := us.Submit(task, 0); ok || err == nil {
		t.Fatalf("request for %d of %d nodes: (%v, %v), want a hard error", n+1, n, ok, err)
	}
	fits := *task
	fits.ID, fits.UserN = 5001, n
	if ok, err := us.Submit(&fits, 0); ok || err != nil {
		t.Fatalf("one load too many: (%v, %v), want a reject", ok, err)
	}
	if got := us.DemandRejects() - decidedUS; got != 1 {
		t.Fatalf("%d demand rejects, want the well-formed arrival's only", got)
	}
	if after := us.Stats(); after.QueueLen != before.QueueLen || after.Accepts != before.Accepts {
		t.Fatalf("the queue moved: %+v -> %+v", before, after)
	}

	s := newSched(t, n, EDF, IITDLT{})
	saturate(t, s, 0, 500, 12000, 0)
	computed, reused := s.PlanCounts()
	decided := s.DemandRejects()
	if ok, err := s.Submit(&Task{ID: 5000, Arrival: 0, Sigma: 100, RelDeadline: 3000, UserN: n + 1}, 0); ok || err != nil {
		t.Fatalf("dlt-iit ignores UserN: (%v, %v), want a reject", ok, err)
	}
	if c, r := s.PlanCounts(); s.DemandRejects() != decided+1 || c != computed || r != reused {
		t.Fatalf("demand rejects %d -> %d, plans computed %d -> %d, kept %d -> %d: want a reject by the bound with no plan",
			decided, s.DemandRejects(), computed, c, reused, r)
	}
}

// checkBaseCap holds the summary against a from-scratch sort of the
// committed release times it was fed, the nodes the mask takes out of
// placement counting as never released.
func checkBaseCap(t *testing.T, c *baseCap, rel []float64, elig []bool) {
	t.Helper()
	want := slices.Clone(rel)
	for id := range want {
		if elig != nil && !elig[id] {
			want[id] = math.MaxFloat64
		}
	}
	if !slices.Equal(c.rel, want) {
		t.Fatalf("committed release times by node:\n got  %v\n want %v", c.rel, want)
	}
	slices.Sort(want)
	c.settle()
	if !slices.Equal(c.asc, want) {
		t.Fatalf("committed release times in order:\n got  %v\n want %v", c.asc, want)
	}
}

// handQueue is a queue state over the given committed release times with the
// given tasks waiting, none applied on the view.
func handQueue(rel []float64, elig []bool, waiting ...*Task) *queueState {
	q := &queueState{p: baseline, live: len(rel)}
	q.resetView(slices.Clone(rel), elig)
	if elig != nil {
		q.live = q.view.Eligible()
	}
	for _, w := range waiting {
		q.queue = append(q.queue, slot{task: w})
	}
	q.planAt(0)
	return q
}

// TestDemandBoundCapacityExact pins the capacity the bound compares against,
// to the last unit: the node-seconds between max(release, now) and the
// deadline over the placeable nodes, the demand of the tasks due by it, at
// the arrival's own deadline and at a later one, under a mask, after commits
// the journal carries and commits past its limit.
func TestDemandBoundCapacityExact(t *testing.T) {
	const cps = 100 // baseline.Cps: a task of σ asks for 100σ node-seconds
	task := func(id int64, demand, deadline float64) *Task {
		return &Task{ID: id, Sigma: demand / cps, RelDeadline: deadline}
	}
	// Nodes released at 0, 10, 20 and 40; now = 5: C(30) = 25 + 20 + 10.
	rel := []float64{10, 0, 40, 20}
	q := handQueue(rel, nil)
	for _, c := range []struct {
		demand float64
		over   bool
	}{{54.9, false}, {55.1, true}} {
		if got := q.overDemand(EDF, task(9, c.demand, 30), 0, 5); got != c.over {
			t.Fatalf("demand %v against C(30) = 55: over = %v", c.demand, got)
		}
	}
	// Two tasks wait, due at 25 (demand 20) and at 50 (demand 60). An arrival
	// due at 30 is ordered between them: 20 + w against C(30) = 55 at its own
	// deadline, 80 + w against C(50) = 45 + 40 + 30 + 10 = 125 at the later one.
	first, last := task(1, 20, 25), task(2, 60, 50)
	for _, c := range []struct {
		pol    Policy
		demand float64
		over   bool
	}{{EDF, 34.9, false}, {EDF, 35.1, true}, {FIFO, 34.9, false}, {FIFO, 35.1, true}} {
		q := handQueue(rel, nil, first, last)
		p := 1
		if c.pol == FIFO {
			p = 2
		}
		if got := q.overDemand(c.pol, task(9, c.demand, 30), p, 5); got != c.over {
			t.Fatalf("%v: demand %v behind 20 against C(30) = 55: over = %v", c.pol, c.demand, got)
		}
	}
	// Due at 30 but with the first task due at 20 only (C(20) irrelevant): an
	// arrival that fits its own deadline and breaks the last task's.
	tight := task(2, 100, 50) // 20 + 100 + w against C(50) = 125
	for _, c := range []struct {
		pol    Policy
		demand float64
		over   bool
	}{{EDF, 4.9, false}, {EDF, 5.1, true}, {FIFO, 5.1, false}} {
		q := handQueue(rel, nil, first, tight)
		if got := q.overDemand(c.pol, task(9, c.demand, 30), map[Policy]int{EDF: 1, FIFO: 2}[c.pol], 5); got != c.over {
			t.Fatalf("%v: demand %v between 20 and 100 against C(50) = 125: over = %v (FIFO checks the arrival's deadline only)", c.pol, c.demand, got)
		}
	}
	// The node released at 0 is out of placement: C(30) = 20 + 10.
	q = handQueue(rel, []bool{true, false, true, true})
	if q.overDemand(EDF, task(9, 29.9, 30), 0, 5) || !q.overDemand(EDF, task(9, 30.1, 30), 0, 5) {
		t.Fatalf("under a mask C(30) = 30: 29.9 over, or 30.1 not")
	}
	// Commits: node 1 until 28 (the journal), then every node to and fro past
	// the journal's limit (a rebuild), ending on 13, 28, 40, 25: C(30) = 17 + 2 + 5.
	q = handQueue(rel, nil)
	q.base.settle()
	q.base.commit([]int{1}, []float64{28})
	q.view.CommitBase([]int{1}, []float64{28})
	if q.overDemand(EDF, task(9, 31.9, 30), 0, 5) || !q.overDemand(EDF, task(9, 32.1, 30), 0, 5) {
		t.Fatalf("after one commit C(30) = 20 + 2 + 10: 31.9 over, or 32.1 not")
	}
	for i := 0; i < 6; i++ {
		to := []float64{12 + float64(i%2), 28, 40, 26 - float64(i%2)}
		q.base.commit([]int{0, 1, 2, 3}, to)
		q.view.CommitBase([]int{0, 1, 2, 3}, to)
	}
	if !q.base.stale {
		t.Fatalf("a journal of %d entries over 4 nodes: want the summary marked for a rebuild", len(q.base.moved))
	}
	if q.overDemand(EDF, task(9, 23.9, 30), 0, 5) || !q.overDemand(EDF, task(9, 24.1, 30), 0, 5) {
		t.Fatalf("after the rebuild C(30) = 24: 23.9 over, or 24.1 not")
	}
}

// TestDemandBoundNumericRange: where an intermediate of the bound leaves the
// range in which it means something — the tolerance wider than the tasks,
// demand that overflows, capacity that is NaN or infinite — the bound must
// abstain and the decision be the full test's; where the slack is denormal
// it may speak, and must agree.
func TestDemandBoundNumericRange(t *testing.T) {
	// decide submits the same stream to a scheduler and to the reference
	// without the bound and returns the bound's rejects.
	decide := func(name string, now float64, tasks []Task) int64 {
		t.Helper()
		a, ref := newSched(t, 4, EDF, IITDLT{}), newSched(t, 4, EDF, planOnly{IITDLT{}})
		for _, task := range tasks {
			ta, tb := task, task
			oka, ea := a.Submit(&ta, now)
			okb, eb := ref.Submit(&tb, now)
			if oka != okb || !errEqual(ea, eb) {
				t.Fatalf("%s: task %+v: (%v,%v), the reference says (%v,%v)", name, task, oka, ea, okb, eb)
			}
		}
		return a.DemandRejects()
	}
	burst := func(now, sigma, d float64, k int) []Task {
		tasks := make([]Task, k)
		for i := range tasks {
			tasks[i] = Task{ID: int64(i + 1), Arrival: now, Sigma: sigma, RelDeadline: d}
		}
		return tasks
	}

	// At t = 1e12 deadlineEps is 1000 time units: the tolerance over four
	// nodes swallows tasks of 30 node-units each, and the bound cannot tell.
	const far = 1e12
	if got := decide("eps wider than a task", far, burst(far, 0.3, 40, 12)); got != 0 {
		t.Fatalf("deadlineEps wider than the tasks: the bound decided %d rejects, want it to abstain", got)
	}
	// The same instant, tasks a thousand times the tolerance: it speaks.
	if got := decide("far clock", far, burst(far, 4e4, 2.5e6, 12)); got == 0 {
		t.Fatalf("t = 1e12, tasks well above the tolerance: the bound never spoke")
	}
	// Negative clocks of the same magnitude.
	if got := decide("far negative clock", -far, burst(-far, 4e4, 2.5e6, 12)); got == 0 {
		t.Fatalf("t = -1e12: the bound never spoke")
	}
	// Deadlines so far out that the capacity of four nodes overflows.
	if got := decide("capacity overflow", 0, burst(0, 1.5e306, 1.7e308, 3)); got != 0 {
		t.Fatalf("capacity overflowing to +Inf: the bound decided %d rejects, want it to abstain", got)
	}
	// Demand that overflows, or is no number, against a finite capacity — no
	// accepted queue sums to that, so the state is built by hand.
	for _, sigma := range []float64{1e306, math.NaN()} {
		w := &Task{ID: 1, Sigma: sigma, RelDeadline: 1e307}
		q := handQueue(make([]float64, 4), nil, w, w, w)
		if q.overDemand(EDF, &Task{ID: 9, Sigma: sigma, RelDeadline: 1e307}, 3, 0) {
			t.Fatalf("a queue of σ = %v against finite capacity: the bound rejects on a demand of %v", sigma, 4*sigma*baseline.Cps)
		}
		if !q.overDemand(EDF, &Task{ID: 9, Sigma: 1e300, RelDeadline: 1e299}, 0, 0) && sigma == sigma {
			t.Fatalf("σ·Cps = 1e302 against four nodes until 1e299: the bound abstains on a finite sum")
		}
	}
	// Denormal slack: nothing fits, and a task of denormal demand is below
	// every tolerance.
	if got := decide("denormal slack", 0, burst(0, 100, 5e-324, 2)); got != 2 {
		t.Fatalf("denormal slack: the bound decided %d of 2 rejects", got)
	}
	decide("denormal demand", 0, burst(0, 5e-324, 1, 3))
	// A node that never frees up (the cluster refuses one free since ever, or
	// released at NaN). A plan that reaches it is a hard error of the
	// model, which the full test may meet where the bound (like the ñ_min
	// fast-reject) sees a reject; what the bound must never do is reject what
	// the shortcut-free reference accepts, or trip over the value.
	for _, release := range []float64{math.Inf(1)} {
		for _, part := range []Partitioner{IITDLT{}, OPR{AllNodes: true}} {
			a, ref := newSched(t, 4, EDF, part), newSched(t, 4, EDF, planOnly{part})
			for _, s := range []*Scheduler{a, ref} {
				if err := s.Cluster().Commit([]int{3}, []float64{0}, []float64{release}, 0); err != nil {
					t.Fatal(err)
				}
			}
			for id := int64(1); id <= 6; id++ {
				ta := Task{ID: id, Arrival: 10, Sigma: 60, RelDeadline: 3000}
				tb := ta
				before := a.DemandRejects()
				a.Submit(&ta, 10) //nolint:errcheck // a reject or the model's hard error
				if okb, _ := ref.Submit(&tb, 10); okb && a.DemandRejects() != before {
					t.Fatalf("%s, a node released at %v: the bound rejected task %d, the reference accepts it", part.Name(), release, id)
				}
			}
		}
	}
}

// TestDemandBoundSeedSaturates: the overloaded corpus entry of
// FuzzIncrementalAdmission does what it is there for — the lockstep driver
// reaches the bound with and without a sweep before the test, across the
// clock steps, node transitions and revalidations the entry mixes in.
func TestDemandBoundSeedSaturates(t *testing.T) {
	for h := byte(0); h < 16; h++ {
		ls := driveIncremental(t, overloadedSeed(h))
		if ls.a.q.live > 0 && ls.a.DemandRejects() == 0 {
			t.Errorf("header %d: the overloaded seed never reached the demand bound (%+v)", h, ls.a.Stats())
		}
		if got, want := ls.a.DemandRejects(), ls.ref.DemandRejects(); got != want {
			t.Errorf("header %d: %d demand rejects, the lockstep reference counts %d", h, got, want)
		}
	}
}
