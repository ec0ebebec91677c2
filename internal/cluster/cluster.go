// Package cluster models the paper's system: a head node P0 connected via a
// switch to N homogeneous processing nodes with identical link bandwidth.
// The head node accepts/rejects tasks, partitions loads and transmits data
// chunks sequentially; processing nodes never communicate with each other.
//
// The cluster tracks, per node, the release time of the last committed
// task — the Release(node_k) state of the paper's Fig. 2 schedulability
// test — together with busy-time and reserved-idle accounting used by the
// evaluation metrics.
package cluster

import (
	"fmt"
	"math"

	"rtdls/internal/dlt"
)

// Cluster is the cluster substrate: homogeneous when created with New,
// per-node heterogeneous when created with NewHetero.
type Cluster struct {
	p     dlt.Params     // reference coefficients (the shared pair when uniform)
	costs *dlt.CostModel // per-node coefficients; uniform for New
	avail []float64      // per node: release time of the last committed task

	busy         float64 // accumulated committed busy time over all nodes, in commit order
	reservedIdle float64 // accumulated inserted idle time wasted by reservations
	lastRelease  float64 // latest committed release time
	commits      int

	// state holds per-node lifecycle states (see fleet.go). nil means
	// every node is NodeUp — the fixed-fleet fast path allocates nothing.
	state []NodeState
}

// New returns a homogeneous cluster with n processing nodes, all available
// at time 0.
func New(n int, p dlt.Params) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one processing node, got %d", n)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cm, err := dlt.UniformCosts(p, n)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		p:     p,
		costs: cm,
		avail: make([]float64, n),
	}, nil
}

// NewHetero returns a cluster whose node i has the linear cost
// coefficients costs[i], all nodes available at time 0. A uniform cost
// table yields a cluster indistinguishable from New.
func NewHetero(costs []dlt.NodeCost) (*Cluster, error) {
	cm, err := dlt.NewCostModel(costs)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		p:     cm.Reference(),
		costs: cm,
		avail: make([]float64, cm.N()),
	}, nil
}

// N returns the number of processing nodes.
func (c *Cluster) N() int { return len(c.avail) }

// Params returns the cluster's reference unit cost parameters: the shared
// pair for a homogeneous cluster, the per-node means otherwise.
func (c *Cluster) Params() dlt.Params { return c.p }

// Costs returns the cluster's per-node cost model.
func (c *Cluster) Costs() *dlt.CostModel { return c.costs }

// Hetero reports whether the cluster has genuinely per-node costs (i.e.
// the cost model is not uniform).
func (c *Cluster) Hetero() bool { return !c.costs.Uniform() }

// AvailInto appends the per-node release times of committed work, indexed
// by node id, to dst[:0] and returns the result: a copy, so hot-path
// callers reuse one scratch buffer across snapshots and AvailInto(nil)
// allocates a fresh one.
func (c *Cluster) AvailInto(dst []float64) []float64 {
	return append(dst[:0], c.avail...)
}

// Commit records that a task occupies the given nodes from busyFrom[i] to
// release[i] (both indexed like nodes), plus reservedIdle time units of
// inserted idle time wasted by the assignment (only nonzero for the
// non-IIT-utilising baselines). It validates that every interval starts at
// or after the node's current release time — committing overlapping work is
// a scheduler bug. A NaN time fails both comparisons (one let through would
// sit in the availability index unordered and panic its next update); a
// +Inf release — a node that never frees up — is legal.
func (c *Cluster) Commit(nodes []int, busyFrom, release []float64, reservedIdle float64) error {
	if len(nodes) != len(busyFrom) || len(nodes) != len(release) {
		return fmt.Errorf("cluster: Commit slice lengths differ: %d nodes, %d starts, %d releases",
			len(nodes), len(busyFrom), len(release))
	}
	if reservedIdle < 0 || math.IsNaN(reservedIdle) {
		return fmt.Errorf("cluster: negative reserved idle %v", reservedIdle)
	}
	const eps = 1e-6
	for i, id := range nodes {
		if id < 0 || id >= len(c.avail) {
			return fmt.Errorf("cluster: Commit: node id %d out of range [0,%d)", id, len(c.avail))
		}
		if math.IsNaN(busyFrom[i]) || busyFrom[i] < c.avail[id]-eps*math.Max(1, math.Abs(c.avail[id])) {
			return fmt.Errorf("cluster: Commit: node %d busy from %v before its release %v",
				id, busyFrom[i], c.avail[id])
		}
		if !(release[i] >= busyFrom[i]) {
			return fmt.Errorf("cluster: Commit: node %d released at %v before busy start %v",
				id, release[i], busyFrom[i])
		}
	}
	for i, id := range nodes {
		c.avail[id] = release[i]
		c.busy += release[i] - busyFrom[i]
		if release[i] > c.lastRelease {
			c.lastRelease = release[i]
		}
	}
	c.reservedIdle += reservedIdle
	c.commits++
	return nil
}

// Commits returns the number of committed tasks.
func (c *Cluster) Commits() int { return c.commits }

// BusyTime returns the total committed busy time summed over all nodes.
// Reserved idle time (an OPR baseline's wasted IITs) is counted as busy:
// the node is held by the task even though it computes nothing.
func (c *Cluster) BusyTime() float64 { return c.busy }

// ReservedIdle returns the total inserted idle time wasted by committed
// reservations (zero for IIT-utilising algorithms).
func (c *Cluster) ReservedIdle() float64 { return c.reservedIdle }

// LastRelease returns the latest committed release time, i.e. the makespan
// of the committed schedule.
func (c *Cluster) LastRelease() float64 { return c.lastRelease }

// Utilization returns the fraction of node·time capacity occupied by
// committed work over [0, horizon]. Work extending beyond the horizon is
// counted in full; callers normally pass max(horizon, LastRelease()).
func (c *Cluster) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return c.BusyTime() / (float64(len(c.avail)) * horizon)
}
