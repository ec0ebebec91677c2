package rt

import (
	"slices"
	"unsafe"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
)

// Candidate is one node count of a partitioner's node search: the n
// earliest-available nodes and their clamped start times, plus the model
// and the timelines an Estimator evaluates them with. A PlanContext owns
// one and runs every candidate of every search in it, so the candidate is
// scratch — overwritten by the next one, never referenced by a Plan. It
// also pools the plans: a scheduler's plan is valid until its next call.
type Candidate struct {
	Task   *Task
	P      dlt.Params     // the cluster's shared coefficients
	IDs    []int          // the n nodes, in dispatch (availability) order
	Starts []float64      // r_k = max(release of node k, arrival, now)
	Costs  []dlt.NodeCost // the nodes' own coefficients; nil on a homogeneous cluster

	costs      []dlt.NodeCost // backs Costs
	model      core.Model
	built      bool // model holds this candidate
	dispatch   dlt.Dispatch
	dispatched bool // dispatch holds the timeline of model's partition
	aux        []float64

	// What outlives a candidate: ln β, and the plan pool — the spares given
	// back (recycle) and the arena, chunks of about 4 KB cut never twice.
	spare  []*Plan
	plans  []Plan
	ints   []int
	floats []float64
	lnP    dlt.Params // lnB = ln β of lnP (minNodes); 0 before the first use
	lnB    float64
}

// Carve cuts n elements off the arena *free, never twice and cap-limited so
// that an append copies, starting a chunk of about 4 KB when too few are left.
func Carve[T any](free *[]T, n int) []T {
	size := chunkLen[T]()
	if n > size {
		return make([]T, n)
	}
	if len(*free) < n {
		if *free == nil {
			size = n // a fresh arena's first cut is exact: one record, no chunk
		}
		*free = make([]T, size)
	}
	cut := (*free)[:n:n]
	*free = (*free)[n:]
	return cut
}

// chunkLen is how many elements of T fill an arena chunk of about 4 KB.
func chunkLen[T any]() int { return 4096 / max(1, int(unsafe.Sizeof(*new(T)))) }

// Estimator is the per-algorithm half of a node search. For each candidate
// node count, smallest first, the search calls Estimate and compares the
// completion estimate it returns against the task's deadline; for the first
// one that meets it, and only for that one, it calls Finish.
type Estimator interface {
	Estimate(c *Candidate) (est float64, err error)
	// Finish completes the candidate's plan: Task, Nodes, Starts and Est
	// are set and Rounds is 1; Release and Alphas have the candidate's
	// length and are to be filled.
	Finish(c *Candidate, pl *Plan) error
}

// Model returns the heterogeneous model of Sec. 4.1.1 for the candidate —
// over the nodes' own coefficients on a heterogeneous cluster — built on
// the first call.
func (c *Candidate) Model() (*core.Model, error) {
	if !c.built {
		var err error
		if c.Costs != nil {
			err = c.model.ResetHetero(c.Costs, c.Task.Sigma, c.Starts)
		} else {
			err = c.model.Reset(c.P, c.Task.Sigma, c.Starts)
		}
		if err != nil {
			return nil, err
		}
		c.built = true
	}
	return &c.model, nil
}

// timeline returns the exact single-round dispatch of the model's partition
// at the candidate's staggered start times, simulated on the first call.
func (c *Candidate) timeline() (*dlt.Dispatch, error) {
	if !c.dispatched {
		m, err := c.Model()
		if err != nil {
			return nil, err
		}
		if err := m.DispatchInto(&c.dispatch); err != nil {
			return nil, err
		}
		c.dispatched = true
	}
	return &c.dispatch, nil
}

// simulate returns the exact single-round timeline of an arbitrary
// partition of the task over the candidate's nodes.
func (c *Candidate) simulate(alphas []float64) (*dlt.Dispatch, error) {
	c.dispatched = false
	if c.Costs != nil {
		return &c.dispatch, dlt.SimulateDispatchHeteroInto(&c.dispatch, c.Costs, c.Task.Sigma, c.Starts, alphas)
	}
	return &c.dispatch, dlt.SimulateDispatchInto(&c.dispatch, c.P, c.Task.Sigma, c.Starts, alphas)
}

// Aux returns a buffer of the candidate's length for the estimator's own
// timeline. What Estimate leaves there, Finish finds.
func (c *Candidate) Aux() []float64 {
	c.aux = slices.Grow(c.aux[:0], len(c.IDs))[:len(c.IDs)]
	return c.aux
}

// load makes c the candidate of the n earliest-available nodes.
func (c *Candidate) load(ctx *PlanContext, cm *dlt.CostModel, n int) {
	c.IDs = slices.Grow(c.IDs[:0], n)[:n]
	c.Starts = slices.Grow(c.Starts[:0], n)[:n]
	ctx.clampedInto(c.Task, c.IDs, c.Starts)
	c.Costs = nil
	if cm != nil {
		c.costs = c.costs[:0]
		for _, id := range c.IDs {
			c.costs = append(c.costs, cm.At(id))
		}
		c.Costs = c.costs
	}
	c.built, c.dispatched = false, false
}

// search is the node search every partitioner runs (Fig. 2: "n ← ñ_min(t)",
// then more nodes while r_n + Ê > A + D): it tries n = lo..hi nodes, each
// candidate in the context's scratch, and returns the plan of the first
// whose estimate does not exceed limit. The scan is linear — the estimate
// is not monotone in n, since each further node is a later one. The plan
// comes from the scratch's pool (newPlan), and a scheduler recycles it once
// its schedule drops it.
func (ctx *PlanContext) search(t *Task, lo, hi int, limit float64, e Estimator) (*Plan, error) {
	c := ctx.candidate()
	c.Task, c.P = t, ctx.P
	cm := ctx.heteroCosts()
	for n := lo; n <= hi; n++ {
		c.load(ctx, cm, n)
		est, err := e.Estimate(c)
		if err != nil {
			return nil, err
		}
		if est > limit {
			continue
		}
		pl := c.newPlan(n)
		pl.Task, pl.Est, pl.Rounds, pl.pooled = t, est, 1, true
		copy(pl.Nodes, c.IDs)
		copy(pl.Starts, c.Starts)
		if err := e.Finish(c, pl); err != nil {
			return nil, err
		}
		return pl, nil
	}
	return nil, ErrInfeasible
}

// newPlan returns a plan of n nodes, zero but for its slices: the last spare,
// on its own storage while that holds n, or one cut from the arena.
func (c *Candidate) newPlan(n int) *Plan {
	var pl *Plan
	if k := len(c.spare); k > 0 {
		pl, c.spare = c.spare[k-1], c.spare[:k-1]
		if cap(pl.Nodes) >= n {
			*pl = Plan{Nodes: pl.Nodes[:n], Starts: pl.Starts[:n], Release: pl.Release[:n], Alphas: pl.Alphas[:n]}
			return pl
		}
	} else {
		pl = &Carve(&c.plans, 1)[0]
	}
	block := Carve(&c.floats, 3*n)
	*pl = Plan{Nodes: Carve(&c.ints, n), Starts: block[:n:n], Release: block[n : 2*n : 2*n], Alphas: block[2*n:]}
	return pl
}

// recycle gives a plan of the node search back to the pool. Its Task is
// cleared, so that a stale read panics; any other plan is left alone.
func (c *Candidate) recycle(pl *Plan) {
	if pl.pooled {
		pl.Task = nil
		c.spare = append(c.spare, pl)
	}
}

// singleRound finishes a plan that dispatches the model's partition in one
// round: each node is released at its exact finish time — the linear cost
// model makes the timeline fully deterministic, so the head node knows
// precisely when every node frees up.
func (c *Candidate) singleRound(pl *Plan) error {
	d, err := c.timeline()
	if err != nil {
		return err
	}
	for i, s := range c.Starts {
		pl.Release[i] = max(d.Finish[i], s)
	}
	copy(pl.Alphas, c.model.Alphas())
	return nil
}
