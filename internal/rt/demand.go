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
// breaks that at its own deadline or — under EDF, where the demand due by a
// waiting task's deadline is a prefix sum — at that of a task ordered after
// it: the full test is then certain to reject. FIFO gets the own-deadline
// check only. Nothing is moved, no partitioner called.
func (q *queueState) overDemand(pol Policy, t *Task, p int, now float64) bool {
	cps := q.p.Cps
	if cm := q.pctx.heteroCosts(); cm != nil {
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
	// deadline: the clear-pass was the check. NaN and ±Inf abstain.
	hit := len(q.queue) == 0 && need <= math.MaxFloat64
	if len(q.queue) > 0 {
		due := q.queue[:p] // under EDF the tasks due by dt are the ones ordered before t
		if pol != EDF {
			due = q.queue
		}
		for _, e := range due {
			if e.task.AbsDeadline() <= dt {
				need += e.task.Sigma * cps
			}
		}
		// over reports need > C(d) + tolerance, abstaining on NaN and ±Inf.
		// From call to call d does not fall: a cursor follows it over the
		// settled times, past the nodes free by now, summing the ones it passes.
		q.base.settle()
		asc := q.base.asc
		free, _ := slices.BinarySearch(asc, now)
		upTo, passed := free, 0.0
		over := func(d float64) bool {
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
	// More nodes asked for than are live is the hard error of a partitioner
	// that takes UserN as binding: the full test's to report, unless a waiting
	// plan on another node count shows this one does not.
	return hit && (t.UserN <= q.live ||
		slices.ContainsFunc(q.queue, func(e slot) bool { return len(e.plan.Nodes) != e.task.UserN }))
}
