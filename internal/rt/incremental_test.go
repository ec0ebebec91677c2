package rt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
)

// This file pins the incremental admission test against the full-replan
// reference (the noHint decorator of scheduler_equiv_test.go): the reuse
// condition of every in-package partitioner, the events that must
// invalidate kept plans, the carried-over speculation snapshot, and a
// stateful lockstep driver shared by a unit test and FuzzIncrementalAdmission.

// specSubmit runs one submission through the optimistic protocol exactly
// as service.admit drives it: snapshot, simulated sweep,
// off-lock test, epoch check, real sweep, install, carry. It returns the
// plans the real sweep committed along with the decision.
func specSubmit(s *Scheduler, sc *SpecContext, t *Task, now float64) (committed []*Plan, accepted bool, err error) {
	s.SnapshotInto(sc)
	sc.CommitDue(now)
	out := s.Speculate(sc, t, now)
	stale := out == SpecFallback || s.Epoch() != sc.Epoch()
	committed, err = s.CommitDue(now)
	if err != nil {
		return committed, false, err
	}
	if stale {
		accepted, err = s.Submit(t, now)
		return committed, accepted, err
	}
	s.Install(t, now, sc.AcceptedPlan(), sc.Schedule(), sc.Stages())
	s.Carry(sc)
	return committed, out == SpecAccept, nil
}

// lockstep drives a production scheduler and the full-replan reference
// through the same operations and fails on the first divergence in
// decisions, in the whole plan table, in commits, displacements or stats.
// It also checks, after every step, that the overlay the production
// scheduler and its speculation contexts keep applied is what their plan
// tables say it is.
type lockstep struct {
	t      *testing.T
	a, ref *Scheduler
	scs    [2]*SpecContext
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
		scs:    [2]*SpecContext{new(SpecContext), new(SpecContext)},
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
	times := cl.AvailTimes()
	for _, e := range q.queue[:q.applied] {
		for i, id := range e.plan.Nodes {
			times[id] = e.plan.Release[i]
		}
	}
	return times
}

// plansOf lists a schedule's plans, checking on the way that every entry's
// cached first start is its plan's.
func (ls *lockstep) plansOf(sched Schedule) []*Plan {
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
	ls.samePlans(what+": plan table", ls.plansOf(a.q.queue), ls.plansOf(ref.q.queue))
	if sa, sb := a.Stats(), ref.Stats(); sa != sb {
		ls.t.Fatalf("%s: stats diverge: %+v vs %+v", what, sa, sb)
	}
	if a.q.view != nil && a.clVersion == a.cl.Version() {
		if got, want := a.q.view.Times(), overlayTimes(a.cl, &a.q); !slices.Equal(got, want) {
			ls.t.Fatalf("%s: scheduler overlay (applied %d of %d):\n got  %v\n want %v",
				what, a.q.applied, len(a.q.queue), got, want)
		}
		ls.sameBase(&a.q)
	}
	for i, sc := range ls.scs {
		if !sc.synced || sc.epoch != a.Epoch() {
			continue
		}
		// A context on the live epoch may have swept ahead of the scheduler
		// only when nothing was due, so its table is the scheduler's.
		ls.samePlans(fmt.Sprintf("%s: context %d table", what, i), ls.plansOf(sc.q.queue), ls.plansOf(a.q.queue))
		if got, want := sc.q.view.Times(), overlayTimes(a.cl, &sc.q); !slices.Equal(got, want) {
			ls.t.Fatalf("%s: context %d overlay (applied %d of %d):\n got  %v\n want %v",
				what, i, sc.q.applied, len(sc.q.queue), got, want)
		}
		ls.sameBase(&sc.q)
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
	checkBaseCap(ls.t, &c, cl.AvailTimes(), elig)
}

// submit sends one task down both schedulers: a takes the speculative
// protocol on context spec (0 or 1) or, with spec < 0, the serialized
// Submit without a preceding sweep; ref always mirrors with the serialized
// calls.
func (ls *lockstep) submit(sigma, relDeadline float64, userN, spec int) bool {
	ls.t.Helper()
	task := Task{ID: ls.nextID, Arrival: ls.now, Sigma: sigma, RelDeadline: relDeadline, UserN: userN}
	ls.nextID++
	ta, tb := task, task
	what := fmt.Sprintf("submit %+v (spec %d)", task, spec)
	var oka bool
	var ea error
	if spec >= 0 {
		var ca []*Plan
		ca, oka, ea = specSubmit(ls.a, ls.scs[spec], &ta, ls.now)
		cb, eb := ls.ref.CommitDue(ls.now)
		ls.samePlans(what+": sweep", ca, cb)
		if eb != nil {
			if !errEqual(ea, eb) {
				ls.t.Fatalf("%s: sweep errors diverge: %v vs %v", what, ea, eb)
			}
			ls.wedged = true
			return false
		}
	} else {
		oka, ea = ls.a.Submit(&ta, ls.now)
	}
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
		ls.wedged = true
		return
	}
	ls.check(what)
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
// behind the schedulers' backs.
func (ls *lockstep) commitOutOfBand(id int, until float64) {
	ls.t.Helper()
	for _, cl := range []*cluster.Cluster{ls.a.cl, ls.ref.cl} {
		from := math.Max(cl.AvailAt(id), ls.now)
		if err := cl.Commit([]int{id}, []float64{from}, []float64{math.Max(from, until)}, 0); err != nil {
			ls.t.Fatal(err)
		}
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
		case op < 8: // submit; ops 0-1 serialized without a sweep, 2-7 speculative
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
			spec := -1
			if op >= 2 {
				spec = op % 2
			}
			ls.submit(sigma, d, next()%(ls.a.cl.N()+1), spec)
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
		ls.submit(300, 40000+float64(i), 0, i%2)
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
func (ls *lockstep) submitLast(spec int) {
	ls.t.Helper()
	if !ls.submit(150, 50000+1000*float64(ls.nextID)-ls.now, 3, spec) {
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
		ls.submitLast(-1)
	}
}

// reusedBy returns how many plans the next submission carries over.
func (ls *lockstep) reusedBy(spec int) int64 {
	ls.t.Helper()
	_, before := ls.a.PlanCounts()
	ls.submitLast(spec)
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
			for _, spec := range []int{-1, 0} {
				ls := newLockstep(t, 6, EDF, part, false)
				ls.now = 100
				ls.backlog(8000, 5)
				ls.now += 100
				if got := ls.reusedBy(spec); got != 5 {
					t.Fatalf("%s/%s/spec=%d: warm submit reused %d of 5 plans", name, part.Name(), spec, got)
				}
				ls.now += 100
				event(ls)
				if got := ls.reusedBy(spec); got != 0 {
					t.Fatalf("%s/%s/spec=%d: reused %d plans across the event", name, part.Name(), spec, got)
				}
				ls.now = math.Max(ls.now, 400)
				ls.commitDue() // a node added idle lets a replanned task start at once
				if got, want := ls.reusedBy(spec), int64(ls.a.Stats().QueueLen-1); got != want || want < 5 {
					t.Fatalf("%s/%s/spec=%d: reused %d of %d plans after recovering", name, part.Name(), spec, got, want)
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
		if got, want := ls.reusedBy(0), int64(ls.a.Stats().QueueLen-1); got != want {
			t.Fatalf("%s: reused %d of %d revalidated plans", name, got, want)
		}
		ls.drain()
	}
}

// delayed is a stub partitioner whose first starts do not follow the queue
// order: a one-node plan on the earliest node, starting UserN time units
// after the node and the task allow. It honours every offered Prior, so a
// hint offered across a change of the view would surface as a stale plan.
type delayed struct{ offered *int }

func (delayed) Name() string { return "delayed" }

func (d delayed) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if ctx.Prior != nil {
		*d.offered++
		return ctx.Prior, nil
	}
	ids, starts := ctx.ClampedStarts(t, 1)
	starts[0] += float64(t.UserN)
	est := starts[0] + t.Sigma
	return &Plan{Task: t, Nodes: ids, Starts: starts, Release: []float64{est}, Alphas: []float64{1}, Est: est, Rounds: 1}, nil
}

// TestScatteredCommitInvalidates: when a plan commits from behind one that
// stays, the tasks it jumped see a different view, so no plan is offered
// back until the next whole-queue test.
func TestScatteredCommitInvalidates(t *testing.T) {
	for _, spec := range []int{-1, 0} {
		offered := 0
		ls := newLockstep(t, 3, FIFO, delayed{&offered}, false)
		ls.submit(10, 1e6, 1000, spec) // starts at 1000
		ls.submit(10, 1e6, 100, spec)  // starts at 100, queued behind it
		if offered != 1 {
			t.Fatalf("spec=%d: second arrival offered %d priors, want 1", spec, offered)
		}
		ls.now = 200
		if spec < 0 {
			ls.commitDue() // commits the second task only
		}
		offered = 0
		ls.submit(10, 1e6, 500, spec)
		if offered != 0 {
			t.Fatalf("spec=%d: %d priors offered across a scattered commit", spec, offered)
		}
		if got := ls.a.PlanFor(1).FirstStart(); got != 1200 {
			t.Fatalf("spec=%d: jumped task starts at %v, want a fresh plan at 1200", spec, got)
		}
		ls.submit(10, 1e6, 700, spec)
		if offered != 2 {
			t.Fatalf("spec=%d: %d priors offered after the whole-queue test, want 2", spec, offered)
		}
		ls.drain()
	}
}

// hintBlind plans like the wrapped partitioner but does not know
// PlanContext.Prior, and counts the Plan calls that offered one.
type hintBlind struct {
	Partitioner
	offered *int
}

func (p hintBlind) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if ctx.Prior != nil {
		*p.offered++
	}
	return noHint{p.Partitioner}.Plan(ctx, t)
}

// TestHintBlindPartitionerProbedOnce: a partitioner that answers an offered
// Prior with a plan of its own is offered one exactly once — per scheduler
// on the serialized path, per context on the speculative one — instead of
// paying a discarded Plan call on every arrival; a partitioner that
// declines an offer is still offered the next.
func TestHintBlindPartitionerProbedOnce(t *testing.T) {
	for _, spec := range []int{-1, 0} {
		offered := 0
		ls := newLockstep(t, 6, EDF, hintBlind{IITDLT{}, &offered}, false)
		ls.now = 100
		ls.backlog(8000, 6)
		if offered != 1 {
			t.Fatalf("spec=%d: %d priors offered to a hint-blind partitioner over 6 arrivals, want 1", spec, offered)
		}
		for i := 0; i < 4; i++ {
			ls.now += 100
			if got := ls.reusedBy(spec); got != 0 {
				t.Fatalf("spec=%d: reused %d plans of a hint-blind partitioner", spec, got)
			}
		}
		if offered != 1 {
			t.Fatalf("spec=%d: %d priors offered in all, want 1", spec, offered)
		}
		ls.drain()
	}

	declines := 0
	ls := newLockstep(t, 3, FIFO, declining{&declines}, false)
	for i := 0; i < 5; i++ {
		ls.submit(10, 1e6, 1000, -1)
	}
	if declines != 4 {
		t.Fatalf("%d offers reached a partitioner that declines each one, want 4", declines)
	}
	ls.drain()
}

// declining is the delayed stub with a partitioner's right to refuse: it
// knows Prior and declines every offer.
type declining struct{ offered *int }

func (declining) Name() string { return "declining" }

func (d declining) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	if ctx.Prior != nil {
		*d.offered++
		return nil, ErrPriorDeclined
	}
	return delayed{}.Plan(ctx, t)
}

// TestPriorSoundness is the per-partitioner reuse property: whenever Plan
// returns the offered Prior, a hint-free Plan against the same view is
// equal to it field for field, bit for bit. Prior is offered under the
// scheduler's own preconditions — same view, a later now, first start not
// before the new start floor.
func TestPriorSoundness(t *testing.T) {
	parts := []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}}
	rng := rand.New(rand.NewPCG(21, 12))
	for _, hetero := range []bool{false, true} {
		kept := make([]int, len(parts))
		for trial := 0; trial < 3000; trial++ {
			n := 2 + rng.IntN(14)
			cl, _ := equivClusters(t, n, hetero)
			avail := make([]float64, n)
			busyFrom := 500 + rng.Float64()*3000
			for i := range avail {
				avail[i] = busyFrom + rng.Float64()*rng.Float64()*4000
			}
			view := NewAvailView(avail)
			now0 := rng.Float64() * 1000
			task := &Task{
				ID:          1,
				Arrival:     now0 * rng.Float64(),
				Sigma:       1 + 400*rng.Float64(),
				RelDeadline: 2000 + 9000*rng.Float64(),
				UserN:       1 + rng.IntN(n),
			}
			for pi, part := range parts {
				ctx := PlanContext{P: cl.Params(), N: n, Now: now0, View: view, Costs: cl.Costs()}
				prior, err := part.Plan(&ctx, task)
				if err != nil {
					continue
				}
				// Later instants up to (and just past) the plan's first start.
				for _, f := range []float64{0, 0.3, 0.7, 0.95, 1, 1.01} {
					ctx.Now = now0 + f*(prior.FirstStart()-now0)
					if prior.FirstStart() < ctx.startFloor(task) {
						continue
					}
					ctx.Prior = prior
					got, err := part.Plan(&ctx, task)
					ctx.Prior = nil
					if err != nil || got != prior {
						continue
					}
					kept[pi]++
					fresh, err := part.Plan(&ctx, task)
					if err != nil || !planEqual(fresh, prior) {
						t.Fatalf("%s hetero=%v: Prior kept at now=%v but a fresh Plan gives (%+v, %v), want %+v\n(task %+v, avail %v)",
							part.Name(), hetero, ctx.Now, fresh, err, prior, task, avail)
					}
				}
			}
		}
		for pi, part := range parts {
			if kept[pi] == 0 {
				t.Fatalf("%s hetero=%v: Prior never kept — the property was not exercised", part.Name(), hetero)
			}
		}
	}
}

// TestCarriedSnapshotSteadyState pins the per-accept cost claim without a
// clock: after the first submission a lone submitter's speculation context
// is carried from install to install, so 1000 accepts on a 1024-node fleet
// copy the cluster's release times and rebuild the availability index
// exactly zero more times.
func TestCarriedSnapshotSteadyState(t *testing.T) {
	s := newSched(t, 1024, EDF, IITDLT{})
	sc := new(SpecContext)
	now := 0.0
	submit := func(id int) {
		task := &Task{ID: int64(id), Arrival: now, Sigma: 150 + float64(id%8)*12.5, RelDeadline: 5200}
		if _, ok, err := specSubmit(s, sc, task, now); err != nil || !ok {
			t.Fatalf("task %d: accepted=%v err=%v", id, ok, err)
		}
		now += 700
	}
	submit(1)
	refreshes, rebuilds := sc.refreshes, sc.q.view.rebuilds
	if refreshes != 1 || rebuilds != 1 {
		t.Fatalf("first submission: %d snapshots, %d index rebuilds, want 1 and 1", refreshes, rebuilds)
	}
	for id := 2; id <= 1001; id++ {
		submit(id)
	}
	if sc.refreshes != refreshes || sc.q.view.rebuilds != rebuilds {
		t.Fatalf("1000 carried accepts took %d snapshots and %d index rebuilds, want 0 and 0",
			sc.refreshes-refreshes, sc.q.view.rebuilds-rebuilds)
	}
	if st := s.Stats(); st.Accepts != 1001 || st.Commits == 0 {
		t.Fatalf("stats %+v: want 1001 accepts and commits in between", st)
	}
}
