package rt

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/dlt"
)

// refOverDemand is the demand bound before it had a certificate: the
// clear-pass, then the exact form over the queue, then the UserN clause
// read off every waiting plan. certain must never make overDemand say
// anything else.
func refOverDemand(q *queueState, pol Policy, t *Task, p int, now float64) bool {
	cps := q.p.Cps
	if q.costs != nil && !q.costs.Uniform() {
		cps = q.costs.Fastest().Cps
	}
	dt, need := t.AbsDeadline(), t.Sigma*cps
	rest, first := need, dt
	for _, e := range q.queue[q.applied:] {
		rest, first = rest+e.task.Sigma*cps, min(first, e.task.AbsDeadline())
	}
	if q.view.Covers(rest-float64(q.live)*deadlineEps(first), now, first) {
		return false
	}
	hit := len(q.queue) == 0 && need <= math.MaxFloat64
	if len(q.queue) > 0 {
		due := q.queue[:p]
		if pol != EDF {
			due = q.queue
		}
		for _, e := range due {
			if e.task.AbsDeadline() <= dt {
				need += e.task.Sigma * cps
			}
		}
		asc := slices.Clone(q.base.rel)
		slices.Sort(asc)
		free, _ := slices.BinarySearch(asc, now)
		over := func(d float64) bool {
			upTo, passed := free, 0.0
			for ; upTo < len(asc) && asc[upTo] < d; upTo++ {
				passed += asc[upTo]
			}
			left := float64(free)*(d-now) + float64(upTo-free)*d - passed
			return need > left+float64(q.live)*deadlineEps(d) && need <= math.MaxFloat64
		}
		hit = over(dt)
		for i := p; pol == EDF && !hit && i < len(q.queue); i++ {
			need += q.queue[i].task.Sigma * cps
			hit = over(q.queue[i].task.AbsDeadline())
		}
	}
	return hit && (t.UserN <= q.live ||
		slices.ContainsFunc(q.queue, func(e slot) bool { return len(e.plan.Nodes) != e.task.UserN }))
}

// randomSigma draws a data size over the whole range the bound meets:
// ordinary sizes, sums that tie, denormals, sizes near overflow, and now
// and then one that is no number or infinite (a hand-built queue skips
// Task.Validate).
func randomSigma(rng *rand.Rand) float64 {
	switch rng.IntN(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 1e306 * (1 + rng.Float64())
	case 4:
		return 5e-324 * float64(1+rng.IntN(8))
	case 5, 6, 7, 8:
		return 0.1 * float64(1+rng.IntN(9)) // decimal fractions: sums that round
	}
	return 0.01 + 400*rng.Float64()
}

// randomDemandQueue builds a hand queue of n nodes — uniform or
// heterogeneous costs, nodes released before and after now — with k tasks
// waiting in policy order, each with a plan on its own UserN nodes or on
// another count.
func randomDemandQueue(t *testing.T, rng *rand.Rand, pol Policy, now float64) *queueState {
	t.Helper()
	n := 1 + rng.IntN(10)
	rel := make([]float64, n)
	for i := range rel {
		rel[i] = now + 3000*(rng.Float64()-0.3)
	}
	var elig []bool
	if rng.IntN(4) == 0 {
		elig = make([]bool, n)
		for i := range elig {
			elig[i] = i == 0 || rng.IntN(3) > 0
		}
	}
	q := handQueue(rel, elig)
	if rng.IntN(2) == 0 {
		costs := make([]dlt.NodeCost, n)
		for i := range costs {
			costs[i] = dlt.NodeCost{Cms: 0.5 + rng.Float64(), Cps: 60 + 80*rng.Float64()}
		}
		cm, err := dlt.NewCostModel(costs)
		if err != nil {
			t.Fatal(err)
		}
		q.costs = cm
	}
	k := rng.IntN(12)
	for i := range k {
		w := &Task{ID: int64(i + 1), Arrival: now - 100*rng.Float64(), Sigma: randomSigma(rng),
			RelDeadline: 200 + 5000*rng.Float64(), UserN: rng.IntN(q.live + 3)}
		nodes := w.UserN
		if rng.IntN(3) == 0 {
			nodes = 1 + rng.IntN(n)
		}
		pos := q.position(pol, w)
		q.queue = slices.Insert(q.queue, pos, slot{task: w, plan: &Plan{Task: w, Nodes: make([]int, nodes)}})
	}
	q.applied = 0
	return q
}

// TestCertificateImpliesExact: over random EDF and FIFO queues, every
// reject the certificate decides is one the exact form decides, and the
// bound answers what it answered before it had a certificate — the UserN
// clause included, for requests above and at most the live count. Each
// queue is also probed at the margin: the largest arrival the bound lets
// through, found by bisection, where the certificate's and the exact form's
// sums round apart.
func TestCertificateImpliesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 7))
	fired, margins := 0, 0
	for trial := range 3000 {
		pol := []Policy{EDF, FIFO}[trial%2]
		now := []float64{0, 1e3, 1e9}[rng.IntN(3)]
		q := randomDemandQueue(t, rng, pol, now)
		cps := q.p.Cps
		if q.costs != nil && !q.costs.Uniform() {
			cps = q.costs.Fastest().Cps
		}
		arrival := &Task{ID: 99, Arrival: now, Sigma: randomSigma(rng), RelDeadline: 200 + 6000*rng.Float64(),
			UserN: rng.IntN(q.live + 3)}
		check := func(a *Task) bool {
			p := q.position(pol, a)
			sure := len(q.queue) > 0 && q.certain(pol, a, cps, now)
			if sure && !q.exceeds(pol, a, p, cps, now) {
				t.Fatalf("trial %d (%v): the certificate rejects σ = %v, the exact form does not", trial, pol, a.Sigma)
			}
			if sure {
				fired++
			}
			got, want := q.overDemand(pol, a, p, now), refOverDemand(q, pol, a, p, now)
			if got != want {
				t.Fatalf("trial %d (%v, UserN %d of %d live, certain %v): the bound says %v, before the certificate %v",
					trial, pol, a.UserN, q.live, sure, got, want)
			}
			if lazy := q.overDemand(pol, a, -1, now); lazy != got {
				t.Fatalf("trial %d: with the position found by the bound %v, given %v", trial, lazy, got)
			}
			return want
		}
		check(arrival)

		// The margin: bisect the arrival's σ between a size the bound lets
		// through and one it rejects, down to adjacent floats, and check
		// both sides.
		a := *arrival
		a.UserN = 0
		if a.Sigma = 1e-6; check(&a) {
			continue
		}
		if a.Sigma = 1e200; !check(&a) {
			continue
		}
		lo, hi := 1e-6, 1e200
		for i := 0; i < 2000 && math.Nextafter(lo, hi) < hi; i++ {
			a.Sigma = lo + (hi-lo)/2
			if a.Sigma == lo || a.Sigma == hi {
				break
			}
			if check(&a) {
				hi = a.Sigma
			} else {
				lo = a.Sigma
			}
		}
		a.Sigma = lo
		check(&a)
		a.Sigma = hi
		check(&a)
		margins++
	}
	if fired < 300 || margins < 300 {
		t.Fatalf("the certificate fired %d times and %d margins were probed: the queues do not reach it", fired, margins)
	}

	// Sums that underflow: at Cps = 1/4 each smallest denormal σ·Cps of
	// the exact form rounds to 0, while five of them summed first round to
	// one denormal. One node free since before now = 0 and a deadline of
	// -1e-9 put capacity plus tolerance at exactly 0.
	tiny := &Task{ID: 1, Arrival: -2e-9, Sigma: 5e-324, RelDeadline: 1e-9}
	q := handQueue([]float64{-10}, nil, tiny, tiny, tiny, tiny)
	arrival := *tiny
	arrival.ID = 9
	if q.certain(EDF, &arrival, 0.25, 0) && !q.exceeds(EDF, &arrival, 4, 0.25, 0) {
		t.Fatal("an underflowing demand: the certificate rejects, the exact form does not")
	}
}

// summary reads every field of the queue's summary, each recomputed if it
// does not hold.
func summary(q *queueState) tally {
	q.tally()
	q.firstStart()
	q.offUserN()
	return q.sum
}

// TestTallyFollowsTheQueue: the queue's summary equals one computed afresh
// after every change to the queue — the steps of a test that is abandoned
// (with the summary read halfway), an accepted test, commits — and on a
// rejected test it is the summary from before.
func TestTallyFollowsTheQueue(t *testing.T) {
	s := newSched(t, 8, EDF, IITDLT{})
	q := &s.q
	check := func(what string) {
		t.Helper()
		want := tally{last: math.Inf(-1), first: math.Inf(1), maxID: math.MinInt64, ok: true, firstOK: true, offOK: true}
		for _, e := range q.queue {
			want.sigma += e.task.Sigma
			want.last = max(want.last, e.task.AbsDeadline())
			want.first = min(want.first, e.plan.FirstStart())
			want.maxID = max(want.maxID, e.task.ID)
			want.offN = want.offN || len(e.plan.Nodes) != e.task.UserN
		}
		if got := summary(q); got != want {
			t.Fatalf("%s: summary %+v, the queue says %+v", what, got, want)
		}
	}
	check("empty")
	now := 0.0
	for id := int64(1); id <= 12; id++ {
		if _, err := s.Submit(&Task{ID: id, Arrival: now, Sigma: 150, RelDeadline: 4000 + 300*float64(id), UserN: 3}, now); err != nil {
			t.Fatal(err)
		}
		check("after a submit")
	}
	if q.tally().sigma == 0 {
		t.Fatal("nothing waits")
	}

	// A tentative schedule, read after each step, then abandoned.
	k := len(q.queue) / 2
	base := q.rebuildFrom(k)
	check("rebuilt")
	q.planAt(now)
	extra := &Task{ID: 100, Arrival: now, Sigma: 90, RelDeadline: 9000}
	pl, err := s.part.Plan(&q.pctx, extra)
	if err != nil {
		t.Fatal(err)
	}
	q.push(extra, pl)
	check("pushed")
	q.restore(k, base)
	check("restored")

	// A reject keeps the summary it found; an accept and a commit change it.
	before := summary(q)
	if ok, err := s.Submit(&Task{ID: 200, Arrival: now, Sigma: 5000, RelDeadline: 5000}, now); ok || err != nil {
		t.Fatalf("an arrival of σ = 5000: (%v, %v), want a reject", ok, err)
	}
	if q.sum != before {
		t.Fatalf("a reject moved the summary: %+v -> %+v", before, q.sum)
	}
	if ok, err := s.Submit(&Task{ID: 201, Arrival: now, Sigma: 10, RelDeadline: 2e4}, now); !ok || err != nil {
		t.Fatalf("a small late arrival: (%v, %v), want an accept", ok, err)
	}
	check("accepted")
	at, _ := s.NextCommit()
	if plans, err := s.CommitDue(at); err != nil || len(plans) == 0 {
		t.Fatalf("CommitDue(%v): %d plans, %v", at, len(plans), err)
	}
	check("committed")
	if s.Due(at) {
		t.Fatalf("something is still due at %v after CommitDue", at)
	}
}
