package rt

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
)

// This file pins the incremental admission test against the full-replan
// reference (the noHint decorator of scheduler_equiv_test.go): the reuse
// rule of every in-package partitioner, the events that must
// invalidate kept plans, and a stateful lockstep driver shared by a unit
// test and FuzzIncrementalAdmission.

// lockstep drives a production scheduler and the full-replan reference
// through the same operations and fails on the first divergence in
// decisions, in the whole plan table, in commits, displacements or stats.
// It also checks, after every step, that the overlay the production
// scheduler keeps applied is what its plan table says it is, and that
// both schedulers' plan pools hold (checkPlanOwnership).
type lockstep struct {
	t      *testing.T
	a, ref *Scheduler
	now    float64
	nextID int64

	// wedged: a sweep failed, identically on both sides. A clock stepping
	// backwards can order a task's first start behind a later task's; once
	// that one commits onto a shared node the earlier plan can never commit
	// (true of the full-replan reference too), and the run ends there.
	wedged bool
}

func newLockstep(t *testing.T, n int, pol Policy, part Partitioner, hetero bool) *lockstep {
	cla, clb := equivClusters(t, n, hetero)
	return &lockstep{
		t:      t,
		a:      NewScheduler(cla, pol, part),
		ref:    NewScheduler(clb, pol, noHint{part}),
		nextID: 1,
	}
}

func (ls *lockstep) samePlans(what string, pa, pb []*Plan) {
	ls.t.Helper()
	if len(pa) != len(pb) {
		ls.t.Fatalf("%s: %d vs %d plans", what, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Task.ID != pb[i].Task.ID || !planEqual(pa[i], pb[i]) {
			ls.t.Fatalf("%s: plan %d diverges:\n got  %+v\n want %+v", what, i, pa[i], pb[i])
		}
	}
}

// overlayTimes recomputes the view a queue state claims to hold: the
// committed release times with plans[:applied] stacked on top.
func overlayTimes(cl *cluster.Cluster, q *queueState) []float64 {
	times := cl.AvailInto(nil)
	for _, e := range q.queue[:q.applied] {
		for i, id := range e.plan.Nodes {
			times[id] = e.plan.Release[i]
		}
	}
	return times
}

// plansOf lists a schedule's plans, checking on the way that every entry's
// cached first start is its plan's.
func (ls *lockstep) plansOf(sched schedule) []*Plan {
	ls.t.Helper()
	plans := make([]*Plan, len(sched))
	for i, e := range sched {
		if e.plan.Task != e.task || e.first != e.plan.FirstStart() {
			ls.t.Fatalf("schedule entry %d: task %d holds plan %+v, first start cached as %v", i, e.task.ID, e.plan, e.first)
		}
		plans[i] = e.plan
	}
	return plans
}

func (ls *lockstep) check(what string) {
	ls.t.Helper()
	a, ref := ls.a, ls.ref
	checkPlanOwnership(ls.t, what, a)
	checkPlanOwnership(ls.t, what+" (reference)", ref)
	ls.samePlans(what+": plan table", ls.plansOf(a.q.queue), ls.plansOf(ref.q.queue))
	if sa, sb := a.Stats(), ref.Stats(); sa != sb {
		ls.t.Fatalf("%s: stats diverge: %+v vs %+v", what, sa, sb)
	}
	if a.q.view != nil && !a.stale {
		if got, want := a.q.view.Times(), overlayTimes(a.cl, &a.q); !slices.Equal(got, want) {
			ls.t.Fatalf("%s: scheduler overlay (applied %d of %d):\n got  %v\n want %v",
				what, a.q.applied, len(a.q.queue), got, want)
		}
		ls.sameBase(&a.q)
	}
}

// sameBase checks that the committed-capacity summary of a queue state in
// sync with the cluster — fed by resetView and sweep alone — holds the
// cluster's committed release times, and that a settled copy of it is their
// from-scratch sort. The copy leaves the journal of the real one as long as
// the run made it.
func (ls *lockstep) sameBase(q *queueState) {
	ls.t.Helper()
	cl := ls.a.cl
	var elig []bool
	if cl.LiveNodes() < cl.N() {
		elig = cl.EligibleInto(nil)
	}
	c := q.base
	c.asc, c.moved = slices.Clone(c.asc), slices.Clone(c.moved)
	checkBaseCap(ls.t, &c, cl.AvailInto(nil), elig)
}

// submit sends one task down both schedulers. With sweep set, each first
// commits what is due, as the service does before every test; without it
// the test runs on a queue that may hold due, uncommitted plans.
func (ls *lockstep) submit(sigma, relDeadline float64, userN int, sweep bool) bool {
	ls.t.Helper()
	task := Task{ID: ls.nextID, Arrival: ls.now, Sigma: sigma, RelDeadline: relDeadline, UserN: userN}
	ls.nextID++
	ta, tb := task, task
	what := fmt.Sprintf("submit %+v (sweep %v)", task, sweep)
	if sweep {
		if ls.commitDue(); ls.wedged {
			return false
		}
	}
	oka, ea := ls.a.Submit(&ta, ls.now)
	okb, eb := ls.ref.Submit(&tb, ls.now)
	if oka != okb || !errEqual(ea, eb) {
		ls.t.Fatalf("%s: decisions diverge: (%v,%v) vs (%v,%v)", what, oka, ea, okb, eb)
	}
	ls.check(what)
	return oka
}

func (ls *lockstep) commitDue() {
	ls.t.Helper()
	pa, ea := ls.a.CommitDue(ls.now)
	pb, eb := ls.ref.CommitDue(ls.now)
	if !errEqual(ea, eb) {
		ls.t.Fatalf("CommitDue(%v) errors diverge: %v vs %v", ls.now, ea, eb)
	}
	what := fmt.Sprintf("CommitDue(%v)", ls.now)
	ls.samePlans(what, pa, pb)
	if ea != nil {
		checkPlanOwnership(ls.t, what, ls.a)
		ls.wedged = true
		return
	}
	ls.check(what)
}

// checkPlanOwnership checks a scheduler's plan pool. The live plans — the
// waiting queue's, and the ones the last CommitDue returned, valid until
// the next — and the spares the node search takes its plans from are all
// distinct: no live plan is a spare. No two of their slices share memory,
// and every spare's Task is cleared.
func checkPlanOwnership(t *testing.T, what string, s *Scheduler) {
	t.Helper()
	role := map[*Plan]string{}
	var spans []memSpan
	add := func(pl *Plan, r string) {
		if prev, dup := role[pl]; dup {
			t.Fatalf("%s: plan %p is %s and %s", what, pl, prev, r)
		}
		role[pl] = r
		spans = append(spans, spanOf(pl, pl.Nodes), spanOf(pl, pl.Starts), spanOf(pl, pl.Release), spanOf(pl, pl.Alphas))
	}
	for _, e := range s.q.queue {
		add(e.plan, "waiting")
	}
	for _, pl := range s.committed {
		add(pl, "committed")
	}
	for _, pl := range s.q.scratch.spare {
		if pl.Task != nil {
			t.Fatalf("%s: spare plan %p holds task %d", what, pl, pl.Task.ID)
		}
		add(pl, "spare")
	}
	slices.SortFunc(spans, func(a, b memSpan) int { return cmp.Compare(a.lo, b.lo) })
	var end memSpan
	for _, sp := range spans {
		if sp.lo < end.hi {
			t.Fatalf("%s: %s plan %p shares memory with %s plan %p", what, role[sp.pl], sp.pl, role[end.pl], end.pl)
		}
		if sp.hi > end.hi {
			end = sp
		}
	}
}

// memSpan is the memory [lo, hi) that a slice of plan pl can reach.
type memSpan struct {
	lo, hi uintptr
	pl     *Plan
}

func spanOf[T any](pl *Plan, s []T) memSpan {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return memSpan{lo, lo + uintptr(cap(s))*unsafe.Sizeof(*new(T)), pl}
}

func (ls *lockstep) setNodeState(id int, st cluster.NodeState) {
	ls.t.Helper()
	da, ea := ls.a.SetNodeState(id, st, ls.now)
	db, eb := ls.ref.SetNodeState(id, st, ls.now)
	what := fmt.Sprintf("SetNodeState(%d,%v)", id, st)
	if !errEqual(ea, eb) || len(da) != len(db) {
		ls.t.Fatalf("%s diverges: (%d,%v) vs (%d,%v)", what, len(da), ea, len(db), eb)
	}
	for i := range da {
		if da[i].ID != db[i].ID {
			ls.t.Fatalf("%s: displaced[%d] = %d vs %d", what, i, da[i].ID, db[i].ID)
		}
	}
	ls.check(what)
}

func (ls *lockstep) addNode(nc dlt.NodeCost) {
	ls.t.Helper()
	ida, ea := ls.a.AddNode(nc, ls.now)
	idb, eb := ls.ref.AddNode(nc, ls.now)
	if ida != idb || !errEqual(ea, eb) {
		ls.t.Fatalf("AddNode diverges: (%d,%v) vs (%d,%v)", ida, ea, idb, eb)
	}
	ls.check("AddNode")
}

func (ls *lockstep) revalidate() {
	ls.t.Helper()
	da, ea := ls.a.Revalidate(ls.now)
	db, eb := ls.ref.Revalidate(ls.now)
	if !errEqual(ea, eb) || len(da) != len(db) {
		ls.t.Fatalf("Revalidate diverges: (%d,%v) vs (%d,%v)", len(da), ea, len(db), eb)
	}
	ls.check("Revalidate")
}

// commitOutOfBand books node id until `until` directly on both clusters,
// past the schedulers, and then tells each its view is stale.
func (ls *lockstep) commitOutOfBand(id int, until float64) {
	ls.t.Helper()
	for _, s := range []*Scheduler{ls.a, ls.ref} {
		cl := s.cl
		from := math.Max(cl.AvailInto(nil)[id], ls.now)
		if err := cl.Commit([]int{id}, []float64{from}, []float64{math.Max(from, until)}, 0); err != nil {
			ls.t.Fatal(err)
		}
		s.invalidate()
	}
}

func (ls *lockstep) drain() {
	ls.t.Helper()
	for !ls.wedged && ls.a.Stats().QueueLen > 0 {
		at, ok := ls.a.NextCommit()
		if !ok {
			ls.t.Fatalf("stuck queue of %d", ls.a.Stats().QueueLen)
		}
		ls.now = math.Max(ls.now, at)
		ls.commitDue()
	}
}

// driveIncremental interprets data as an operation stream over a lockstep
// pair: the header picks the algorithm, policy, cost model and fleet size,
// every following byte group one operation. Time advances separately from
// the sweep, so tests also run against queues holding due, uncommitted
// plans; now and then it steps backwards.
func driveIncremental(t *testing.T, data []byte) *lockstep {
	t.Helper()
	off := 0
	next := func() int {
		if off >= len(data) {
			return 0
		}
		b := data[off]
		off++
		return int(b)
	}
	parts := []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}
	h := next()
	part := parts[h%4]
	pol := []Policy{EDF, FIFO}[h/4%2]
	hetero := h/8%2 == 1
	n := 2 + next()%11
	ls := newLockstep(t, n, pol, part, hetero)
	states := []cluster.NodeState{cluster.NodeUp, cluster.NodeDraining, cluster.NodeDown}
	for steps := 0; steps < 400 && off < len(data) && !ls.wedged; steps++ {
		switch op := next() % 16; {
		case op < 8: // submit; ops 0-1 without a sweep, 2-7 after one
			sigma := 1 + float64(next())*1.5
			var d float64
			switch c := next(); c % 4 {
			case 0: // hopeless by transmission time alone
				d = sigma * baseline.Cms * (0.2 + float64(c)/400)
			case 1: // tight: hopeless iff the queue is in the way
				d = baseline.ExecTime(sigma, n) * (0.9 + float64(c)/800)
			default:
				d = 1500 + 25*float64(c)
			}
			ls.submit(sigma, d, next()%(ls.a.cl.N()+1), op >= 2)
		case op < 11:
			ls.now += float64(next()) * 12
		case op == 11:
			ls.commitDue()
		case op == 12:
			ls.setNodeState(next()%ls.a.cl.N(), states[next()%3])
		case op == 13:
			switch next() % 4 {
			case 0:
				ls.addNode(dlt.NodeCost{Cms: 0.8, Cps: 95})
			case 1:
				ls.revalidate()
			case 2:
				// Waiting plans on the booked node can no longer commit, so
				// (as after any capacity loss) the queue is revalidated.
				ls.commitOutOfBand(next()%ls.a.cl.N(), ls.now+float64(next())*10)
				ls.revalidate()
			default:
				ls.now = math.Max(0, ls.now-float64(next()))
			}
		default:
			ls.now += float64(next()) * 2
			ls.commitDue()
		}
	}
	ls.drain()
	return ls
}

// overloadedSeed is an operation stream for driveIncremental, under the
// given header, that fills the queue of a two-to-four-node fleet with tasks
// that fit one by one and not together and keeps submitting into it — in
// front, in the middle, behind — while the clock steps forwards and
// backwards, nodes drain, fail and return and the queue is revalidated: the
// saturated regime the demand bound decides, which random bytes reach rarely.
func overloadedSeed(header byte) []byte {
	data := []byte{header, byte(header % 3)}
	for i := 0; i < 90; i++ {
		// A submit: σ = 31..46, deadline 1500 + 25c with c%4 >= 2, spread
		// over the whole range so that arrivals land all over the queue.
		data = append(data, byte(i%8), byte(20+i%11), byte(2+4*((i*37)%60)), byte(i%5))
		switch {
		case i%9 == 8:
			data = append(data, 9, byte(i%7)) // the clock moves on a little
		case i%23 == 22:
			data = append(data, 13, 3, byte(5+i%40)) // and steps back
		case i%31 == 30:
			data = append(data, 12, byte(i), byte(1+i%2)) // a node drains or fails
		case i%31 == 15:
			data = append(data, 12, byte(i-15), 0, 13, 1) // comes back; revalidate
		case i%17 == 16:
			data = append(data, 11) // commit what is due
		}
	}
	return data
}

func TestIncrementalAdmissionLockstep(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 41))
	reused := int64(0)
	for h := 0; h < 16; h++ {
		for trial := 0; trial < 6; trial++ {
			data := make([]byte, 200+rng.IntN(1500))
			for i := range data {
				data[i] = byte(rng.IntN(256))
			}
			data[0] = byte(h)
			driveIncremental(t, data)
		}
	}
	// The streams must actually exercise reuse, not only its fallbacks.
	ls := newLockstep(t, 8, EDF, IITDLT{}, false)
	for i := 0; i < 40; i++ {
		ls.now += 100
		ls.submit(300, 40000+float64(i), 0, true)
	}
	_, reused = ls.a.PlanCounts()
	if _, refReused := ls.ref.PlanCounts(); reused == 0 || refReused != 0 {
		t.Fatalf("reused %d plans (reference %d): want reuse on the production side only", reused, refReused)
	}
}

// FuzzIncrementalAdmission is the stateful fuzz entry over the lockstep
// driver, registered in the Makefile FUZZ_PKGS CI smoke.
func FuzzIncrementalAdmission(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 2, 200, 2, 0, 3, 180, 3, 0, 8, 50, 11, 4, 90, 6, 0, 13, 2, 1, 40, 5, 120, 7, 0})
	f.Add([]byte{5, 10, 4, 250, 2, 3, 5, 250, 6, 3, 12, 1, 2, 6, 100, 2, 0, 13, 0, 7, 100, 2, 0, 12, 1, 0, 3, 90, 2, 0})
	rng := rand.New(rand.NewPCG(3, 9))
	for h := 0; h < 16; h += 5 {
		seed := make([]byte, 400)
		for i := range seed {
			seed[i] = byte(rng.IntN(256))
		}
		seed[0] = byte(h)
		f.Add(seed)
		f.Add(overloadedSeed(byte(h)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		driveIncremental(t, data)
	})
}

// submitLast submits a task whose absolute deadline lies behind every
// earlier one's, so EDF and FIFO both order it at the end of the queue.
func (ls *lockstep) submitLast(sweep bool) {
	ls.t.Helper()
	if !ls.submit(150, 50000+1000*float64(ls.nextID)-ls.now, 3, sweep) {
		ls.t.Fatalf("task %d rejected", ls.nextID-1)
	}
}

// backlog books every node of both clusters until `until` and queues k
// tasks behind it, so every one of them waits.
func (ls *lockstep) backlog(until float64, k int) {
	ls.t.Helper()
	for id := 0; id < ls.a.cl.N(); id++ {
		ls.commitOutOfBand(id, until)
	}
	for i := 0; i < k; i++ {
		ls.submitLast(false)
	}
}

// reusedBy returns how many plans the next submission carries over.
func (ls *lockstep) reusedBy(sweep bool) int64 {
	ls.t.Helper()
	_, before := ls.a.PlanCounts()
	ls.submitLast(sweep)
	_, after := ls.a.PlanCounts()
	return after - before
}

// TestReuseInvalidation: every event that changes the committed state
// other than by committing the queue's head must make the next test
// re-plan the whole queue — and the one after it reuse again.
func TestReuseInvalidation(t *testing.T) {
	events := map[string]func(ls *lockstep){
		"restore":     func(ls *lockstep) { ls.setNodeState(2, cluster.NodeUp) },
		"add-node":    func(ls *lockstep) { ls.addNode(dlt.NodeCost{Cms: 1, Cps: 100}) },
		"out-of-band": func(ls *lockstep) { ls.commitOutOfBand(1, 9000) },
		"time-back":   func(ls *lockstep) { ls.now -= 150 },
	}
	parts := []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}
	for name, event := range events {
		for _, part := range parts {
			for _, sweep := range []bool{false, true} {
				ls := newLockstep(t, 6, EDF, part, false)
				ls.now = 100
				ls.backlog(8000, 5)
				ls.now += 100
				if got := ls.reusedBy(sweep); got != 5 {
					t.Fatalf("%s/%s/sweep=%v: warm submit reused %d of 5 plans", name, part.Name(), sweep, got)
				}
				ls.now += 100
				event(ls)
				if got := ls.reusedBy(sweep); got != 0 {
					t.Fatalf("%s/%s/sweep=%v: reused %d plans across the event", name, part.Name(), sweep, got)
				}
				ls.now = math.Max(ls.now, 400)
				ls.commitDue() // a node added idle lets a replanned task start at once
				if got, want := ls.reusedBy(sweep), int64(ls.a.Stats().QueueLen-1); got != want || want < 5 {
					t.Fatalf("%s/%s/sweep=%v: reused %d of %d plans after recovering", name, part.Name(), sweep, got, want)
				}
				ls.drain()
			}
		}
	}

	// Capacity loss and Revalidate re-plan the queue themselves; what they
	// install is a whole-queue test's outcome, so the next arrival reuses it.
	for name, event := range map[string]func(ls *lockstep){
		"fail":       func(ls *lockstep) { ls.setNodeState(2, cluster.NodeDown) },
		"drain":      func(ls *lockstep) { ls.setNodeState(2, cluster.NodeDraining) },
		"revalidate": func(ls *lockstep) { ls.revalidate() },
	} {
		ls := newLockstep(t, 6, EDF, IITDLT{}, false)
		ls.now = 100
		ls.backlog(8000, 5)
		ls.now += 100
		event(ls)
		if got, want := ls.reusedBy(true), int64(ls.a.Stats().QueueLen-1); got != want {
			t.Fatalf("%s: reused %d of %d revalidated plans", name, got, want)
		}
		ls.drain()
	}
}

// delayed is a stub partitioner whose first starts do not follow the queue
// order: a one-node plan on the earliest node, starting UserN time units
// after the node and the task allow. Its plans are sealed at their first
// start, so the scheduler keeps every one the guards let through, and a
// plan kept across a change of the view would surface as a stale plan.
type delayed struct{}

func (delayed) Name() string { return "delayed" }

func (delayed) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	ids, starts := ctx.ClampedStarts(t, 1)
	starts[0] += float64(t.UserN)
	est := starts[0] + t.Sigma
	return sealFixed(&Plan{Task: t, Nodes: ids, Starts: starts, Release: []float64{est}, Alphas: []float64{1}, Est: est, Rounds: 1}, nil)
}

// TestScatteredCommitInvalidates: when a plan commits from behind one that
// stays, the tasks it jumped see a different view, so no plan is kept
// until the next whole-queue test.
func TestScatteredCommitInvalidates(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		ls := newLockstep(t, 3, FIFO, delayed{}, false)
		keptBy := func(userN int) int64 {
			t.Helper()
			_, before := ls.a.PlanCounts()
			ls.submit(10, 1e6, userN, sweep)
			_, after := ls.a.PlanCounts()
			return after - before
		}
		ls.submit(10, 1e6, 1000, sweep) // starts at 1000
		// The second task starts at 100, queued behind the first.
		if kept := keptBy(100); kept != 1 {
			t.Fatalf("sweep=%v: second arrival kept %d plans, want 1", sweep, kept)
		}
		ls.now = 200
		if !sweep {
			ls.commitDue() // commits the second task only
		}
		if kept := keptBy(500); kept != 0 {
			t.Fatalf("sweep=%v: %d plans kept across a scattered commit", sweep, kept)
		}
		if got := ls.a.PlanFor(1).FirstStart(); got != 1200 {
			t.Fatalf("sweep=%v: jumped task starts at %v, want a fresh plan at 1200", sweep, got)
		}
		if kept := keptBy(700); kept != 2 {
			t.Fatalf("sweep=%v: %d plans kept after the whole-queue test, want 2", sweep, kept)
		}
		ls.drain()
	}
}

// TestKeepSoundness is the property of the scheduler's one keep rule:
// whenever keeps keeps a plan at a later start floor inside the guards of
// queueState.test — the same view, a later now, a first start not before
// the floor — a fresh Plan against the same view is equal to it field for
// field, bit for bit. Every partitioner must have plans kept, and IITDLT
// or OPR-MN must have an unsealed one kept by the bound's recheck. In a
// third of the homogeneous trials the earliest node frees about
// deadlineEps past the start floor (every node does, in half of them) and
// the deadline lies a few ulps from a candidate's estimate: there the
// bound at the plan's first start can exceed its node count, so the plan
// is not sealed, while a floor before it fits.
func TestKeepSoundness(t *testing.T) {
	parts := []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}
	rng := rand.New(rand.NewPCG(21, 12))
	rechecked, unsealed := 0, 0
	for _, hetero := range []bool{false, true} {
		kept := make([]int, len(parts))
		for trial := 0; trial < 3000; trial++ {
			n := 2 + rng.IntN(14)
			cl, _ := equivClusters(t, n, hetero)
			now0 := rng.Float64() * 1000
			task := &Task{ID: 1, Arrival: now0 * rng.Float64(), Sigma: 1 + 400*rng.Float64(), UserN: 1 + rng.IntN(n)}
			near := !hetero && trial%3 == 0
			busyFrom := 500 + rng.Float64()*3000
			if near {
				busyFrom = now0 + math.Pow(10, -4-5*rng.Float64()) // about deadlineEps
			}
			avail := make([]float64, n)
			for i := range avail {
				avail[i] = busyFrom
				if !near || trial%2 == 0 { // else every node frees at r_1: the bound is tight
					avail[i] += rng.Float64() * rng.Float64() * 4000
				}
			}
			avail[rng.IntN(n)] = busyFrom
			view := NewAvailView(avail)
			task.RelDeadline = 2000 + 9000*rng.Float64()
			if near {
				ctx := PlanContext{P: cl.Params(), N: n, Now: now0, View: view}
				k := 1 + rng.IntN(n)
				pl, err := ctx.search(task, k, k, math.Inf(1), parts[trial/6%2].(Estimator))
				if err != nil {
					t.Fatal(err)
				}
				d := pl.Est - deadlineEps(pl.Est)
				u := rng.IntN(7) - 3 // ulps either side
				for ; u > 0; u-- {
					d = math.Nextafter(d, math.Inf(1))
				}
				for ; u < 0; u++ {
					d = math.Nextafter(d, math.Inf(-1))
				}
				task.RelDeadline = d - task.Arrival
			}
			for pi, part := range parts {
				ctx := PlanContext{P: cl.Params(), N: n, Now: now0, View: view, Costs: cl.Costs()}
				pl, err := part.Plan(&ctx, task)
				if err != nil {
					continue
				}
				// Later instants up to (and just past) the plan's first start.
				first := pl.FirstStart()
				for _, f := range []float64{0, 0.3, 0.7, 0.95, 1, 1.01} {
					ctx.Now = now0 + f*(first-now0)
					slack := task.AbsDeadline() - ctx.startFloor(task)
					if first < ctx.startFloor(task) || !ctx.keeps(pl, slack) {
						continue
					}
					kept[pi]++
					if pi < 2 && f > 0 && !pl.sealedAt(slack) {
						rechecked++
						if pl.minSlack == 0 {
							unsealed++
						}
					}
					fresh, err := part.Plan(&ctx, task)
					if err != nil || !planEqual(fresh, pl) {
						t.Fatalf("%s hetero=%v: kept at now=%v but a fresh Plan gives (%+v, %v), want %+v\n(task %+v, avail %v)",
							part.Name(), hetero, ctx.Now, fresh, err, pl, task, avail)
					}
				}
			}
		}
		for pi, part := range parts {
			if kept[pi] == 0 {
				t.Fatalf("%s hetero=%v: no plan kept — the property was not exercised", part.Name(), hetero)
			}
		}
	}
	t.Logf("%d IITDLT and OPR-MN plans kept past their seal at a later floor, %d of them unsealed", rechecked, unsealed)
	if unsealed == 0 {
		t.Fatal("no unsealed IITDLT or OPR-MN plan kept at a later floor — the recheck was not exercised")
	}
}
