package rt

import (
	"math"
	"slices"
)

// baseCap is the demand bound's summary of the committed state: the nodes'
// committed release times in ascending order, a node that is not placeable
// counting as never released. resetView snapshots it and sweep hands it every
// commit; the changed times wait in a journal until a bound gets past its
// clear-pass and settles them in — a shift each, never a sort.
type baseCap struct {
	rel, asc []float64 // per node id, and sorted; math.MaxFloat64 = not placeable
	moved    []float64 // journal of (old, new) times not yet in asc
	stale    bool      // asc is to be rebuilt from rel: a reset, a journal longer than the fleet, a NaN
}

func (c *baseCap) reset(avail []float64, elig []bool) {
	c.rel, c.moved, c.stale = append(c.rel[:0], avail...), c.moved[:0], true
	for id, placeable := range elig {
		if !placeable {
			c.rel[id] = math.MaxFloat64
		}
	}
}

// commit records that node ids[i] is committed until release[i].
func (c *baseCap) commit(ids []int, release []float64) {
	for i, id := range ids {
		if old, r := c.rel[id], release[i]; old != r && old != math.MaxFloat64 {
			c.rel[id] = r
			if !c.stale {
				c.moved = append(c.moved, old, r)
				c.stale = old != old || r != r || len(c.moved) > 2*len(c.rel)
			}
		}
	}
}

// settle brings asc up to date with the commits.
func (c *baseCap) settle() {
	if c.stale {
		c.asc = append(c.asc[:0], c.rel...)
		slices.Sort(c.asc)
	}
	for j := 0; j < len(c.moved) && !c.stale; j += 2 {
		i, _ := slices.BinarySearch(c.asc, c.moved[j])
		r := c.moved[j+1]
		for ; i+1 < len(c.asc) && c.asc[i+1] < r; i++ {
			c.asc[i] = c.asc[i+1]
		}
		for ; i > 0 && c.asc[i-1] > r; i-- {
			c.asc[i] = c.asc[i-1]
		}
		c.asc[i] = r
	}
	c.moved, c.stale = c.moved[:0], false
}

// overDemand is EDF's processor-demand criterion carried to divisible loads.
// Whatever the partitioner, a schedule gives each task at least σ·Cps
// node-seconds (at the fastest node's Cps) between the committed release
// times and its deadline, so the demand due by d cannot exceed C(d) =
// Σ max(0, d − max(release, now)) over the placeable nodes, within
// checkDeadline's tolerance per node. It reports whether t at position p
// (p < 0: wherever the policy orders it, found only if needed) breaks that
// at its own deadline or — under EDF, where the demand due by a
// waiting task's deadline is a prefix sum — at that of a task ordered after
// it: the full test is then certain to reject. FIFO gets the own-deadline
// check only. Nothing is moved, no partitioner called.
//
// It runs in three steps, each only when the one before cannot tell: a
// clear-pass that shows from the view that no sum can exceed C, the O(1)
// certificate of certain, and the exact form, exceeds, which reads the
// queue.
func (q *queueState) overDemand(pol Policy, t *Task, p int, now float64) bool {
	cps := q.p.Cps
	if cm := q.costs; cm != nil && !cm.Uniform() {
		cps = cm.Fastest().Cps
	}
	dt, need := t.AbsDeadline(), t.Sigma*cps
	// Clear-pass: the plans applied on the view took their tasks' demand out
	// of it, so if it still offers t's and the unapplied tasks' before the
	// earliest of their deadlines, no sum exceeds C — and the queue is not read.
	rest, first := need, dt
	for _, e := range q.queue[q.applied:] {
		rest, first = rest+e.task.Sigma*cps, min(first, e.task.AbsDeadline())
	}
	if q.view.Covers(rest-float64(q.live)*deadlineEps(first), now, first) {
		return false
	}
	// With nothing waiting the view is the committed state and dt the one
	// deadline: the clear-pass was the check. Otherwise the certificate, and
	// only when it cannot tell the exact form. NaN and ±Inf abstain.
	hit := need <= math.MaxFloat64
	if len(q.queue) > 0 && !q.certain(pol, t, cps, now) {
		if p < 0 {
			p = q.position(pol, t)
		}
		hit = q.exceeds(pol, t, p, cps, now)
	}
	// More nodes asked for than are live is the hard error of a partitioner
	// that takes UserN as binding: the full test's to report, unless a waiting
	// plan on another node count shows this one does not.
	return hit && (t.UserN <= q.live || q.offUserN())
}

// certain is the bound's check at D = max(dt, d_last), where t and every
// waiting task are due, on the queue's summary: under EDF the last check of
// exceeds, under FIFO its only one when no waiting task is due after t.
// Its demand is summed in another order than exceeds sums it, so it must
// clear the capacity by 1e-9 of itself, far above either sum's rounding,
// and by the least normal float, above that of sums that underflow. It
// abstains on NaN and ±Inf.
func (q *queueState) certain(pol Policy, t *Task, cps, now float64) bool {
	sum := q.tally()
	dt := t.AbsDeadline()
	d := max(dt, sum.last)
	if pol != EDF && d != dt {
		return false
	}
	need := (t.Sigma + sum.sigma) * cps
	c := q.capacity(now)
	return need > c.at(d)+float64(q.live)*deadlineEps(d)+1e-9*need+0x1p-1022 && need <= math.MaxFloat64
}

// exceeds is the exact form of the bound on a non-empty queue: the demand
// due by dt, and under EDF by each later deadline, against C there, over
// need > C(d) + tolerance, abstaining on NaN and ±Inf.
func (q *queueState) exceeds(pol Policy, t *Task, p int, cps, now float64) bool {
	dt, need := t.AbsDeadline(), t.Sigma*cps
	due := q.queue[:p] // under EDF the tasks due by dt are the ones ordered before t
	if pol != EDF {
		due = q.queue
	}
	for _, e := range due {
		if e.task.AbsDeadline() <= dt {
			need += e.task.Sigma * cps
		}
	}
	c := q.capacity(now)
	over := func(d float64) bool {
		return need > c.at(d)+float64(q.live)*deadlineEps(d) && need <= math.MaxFloat64
	}
	hit := over(dt)
	for i := p; pol == EDF && !hit && i < len(q.queue); i++ {
		need += q.queue[i].task.Sigma * cps
		hit = over(q.queue[i].task.AbsDeadline())
	}
	return hit
}

// capacity is C(d) over the settled committed release times at now, for d
// that does not fall from call to call: a cursor follows d over the times,
// past the nodes free by now, summing the ones it passes.
type capacity struct {
	asc        []float64
	now        float64
	free, upTo int
	passed     float64
}

func (q *queueState) capacity(now float64) capacity {
	q.base.settle()
	free, _ := slices.BinarySearch(q.base.asc, now)
	return capacity{asc: q.base.asc, now: now, free: free, upTo: free}
}

// at returns C(d).
func (c *capacity) at(d float64) float64 {
	asc, i, passed := c.asc, c.upTo, c.passed
	for ; i < len(asc) && asc[i] < d; i++ {
		passed += asc[i]
	}
	c.upTo, c.passed = i, passed
	return float64(c.free)*(d-c.now) + float64(i-c.free)*d - passed
}
