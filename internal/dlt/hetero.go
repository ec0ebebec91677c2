package dlt

import (
	"fmt"
	"math"

	"rtdls/internal/errs"
)

// This file generalises the linear cost model from one scalar (Cms, Cps)
// pair shared by every node to per-node coefficients (Cms_i, Cps_i),
// following the heterogeneous star-network analyses of Gallet, Robert and
// Vivien ("Comments on 'Design and performance evaluation of load
// distribution strategies…'") and Wu, Cao and Robertazzi ("Optimal
// Divisible Load Scheduling for Resource-Sharing Network").
//
// The homogeneous formulas of dlt.go are the special case where every
// NodeCost is equal; CostModel detects that case so uniform cost models can
// be routed through the original closed forms, reproducing the legacy
// scheduler bit for bit.

// NodeCost holds one processing node's linear cost coefficients: Cms is the
// time to transmit one unit of load over that node's link, Cps the time to
// process one unit on that node. Cps must be positive and finite; Cms must
// be non-negative and finite (a zero Cms models an infinitely fast link,
// the degenerate end of the heterogeneity range).
type NodeCost struct {
	Cms float64
	Cps float64
}

// Validate reports whether the coefficients describe a usable node.
func (c NodeCost) Validate() error {
	if !(c.Cms >= 0) || math.IsInf(c.Cms, 0) {
		return fmt.Errorf("dlt: node Cms must be non-negative and finite, got %v: %w", c.Cms, errs.ErrBadConfig)
	}
	if !(c.Cps > 0) || math.IsInf(c.Cps, 0) {
		return fmt.Errorf("dlt: node Cps must be positive and finite, got %v: %w", c.Cps, errs.ErrBadConfig)
	}
	return nil
}

// Params converts the node's coefficients to a scalar Params value.
func (c NodeCost) Params() Params { return Params{Cms: c.Cms, Cps: c.Cps} }

// CostModel is an immutable per-node cost table for a cluster of N nodes,
// indexed by node id. A CostModel whose entries are all equal is "uniform":
// every consumer routes uniform models through the original homogeneous
// closed forms, so a uniform CostModel reproduces the scalar-Params code
// paths exactly.
type CostModel struct {
	costs   []NodeCost
	uniform bool
	fastest NodeCost // componentwise minima, precomputed so Fastest is O(1)
}

// NewCostModel builds a cost model from per-node coefficients (indexed by
// node id). The slice is copied; it must be non-empty and every entry must
// validate.
func NewCostModel(costs []NodeCost) (*CostModel, error) {
	if len(costs) == 0 {
		return nil, fmt.Errorf("dlt: cost model needs at least one node: %w", errs.ErrBadConfig)
	}
	cp := make([]NodeCost, len(costs))
	copy(cp, costs)
	uniform := true
	for i, c := range cp {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("dlt: cost model node %d: %w", i, err)
		}
		if c != cp[0] {
			uniform = false
		}
	}
	if uniform && !(cp[0].Cms > 0) {
		// The homogeneous closed forms require Cms > 0 (β < 1); keep a
		// uniform zero-Cms model on the general path instead.
		uniform = false
	}
	return &CostModel{costs: cp, uniform: uniform, fastest: minCost(cp)}, nil
}

// minCost returns the componentwise minima over the (non-empty) table.
func minCost(costs []NodeCost) NodeCost {
	f := costs[0]
	for _, c := range costs[1:] {
		f.Cms = math.Min(f.Cms, c.Cms)
		f.Cps = math.Min(f.Cps, c.Cps)
	}
	return f
}

// UniformCosts returns the cost model in which every one of the n nodes has
// the scalar coefficients p — the legacy homogeneous cluster.
func UniformCosts(p Params, n int) (*CostModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("dlt: cost model needs at least one node, got %d: %w", n, errs.ErrBadConfig)
	}
	costs := make([]NodeCost, n)
	for i := range costs {
		costs[i] = NodeCost{Cms: p.Cms, Cps: p.Cps}
	}
	return &CostModel{costs: costs, uniform: true, fastest: costs[0]}, nil
}

// N returns the number of nodes.
func (m *CostModel) N() int { return len(m.costs) }

// At returns node id's coefficients.
func (m *CostModel) At(id int) NodeCost { return m.costs[id] }

// Uniform reports whether every node has identical coefficients, i.e. the
// model is the legacy homogeneous cluster.
func (m *CostModel) Uniform() bool { return m.uniform }

// Reference returns the scalar Params consumers use as the model's
// normalisation anchor (workload calibration, ñ_min seeds): for a uniform
// model the shared coefficients themselves — bit-identical to the legacy
// scalars — and otherwise the arithmetic per-node means.
func (m *CostModel) Reference() Params {
	if m.uniform {
		return m.costs[0].Params()
	}
	var cms, cps float64
	for _, c := range m.costs {
		cms += c.Cms
		cps += c.Cps
	}
	n := float64(len(m.costs))
	return Params{Cms: cms / n, Cps: cps / n}
}

// Fastest returns the componentwise minima over all nodes — an "optimistic
// uniform cluster" at least as fast as any real subset, used for safe lower
// bounds such as HeteroMinNodesBound and the admission fast-reject. O(1):
// the minima are precomputed at construction.
func (m *CostModel) Fastest() NodeCost { return m.fastest }

// SelectInto returns the coefficients of the given node ids, in id-slice
// order (the caller's dispatch order), written over dst's backing array
// when it is large enough; SelectInto(nil, ids) allocates a fresh slice.
func (m *CostModel) SelectInto(dst []NodeCost, ids []int) []NodeCost {
	dst = dst[:0]
	for _, id := range ids {
		dst = append(dst, m.costs[id])
	}
	return dst
}

// SimulateFor re-simulates the single-round dispatch of a plan that
// occupies the given node ids (in dispatch order, with parallel avail and
// alphas): the scalar fast path for uniform models — bit-identical to the
// legacy SimulateDispatch — and per-node costs otherwise. Both the driver
// and the independent verifier re-check committed plans through this one
// helper so their timelines cannot diverge.
func (m *CostModel) SimulateFor(ids []int, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	if m.uniform {
		return SimulateDispatch(m.costs[0].Params(), sigma, avail, alphas)
	}
	return SimulateDispatchHetero(m.SelectInto(nil, ids), sigma, avail, alphas)
}

// Costs returns a copy of the full per-node table, indexed by node id.
func (m *CostModel) Costs() []NodeCost {
	out := make([]NodeCost, len(m.costs))
	copy(out, m.costs)
	return out
}

// validateCosts checks a dispatch-ordered coefficient slice.
func validateCosts(costs []NodeCost) error {
	if len(costs) == 0 {
		return fmt.Errorf("dlt: need at least one node cost: %w", errs.ErrBadConfig)
	}
	for i, c := range costs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("dlt: costs[%d]: %w", i, err)
		}
	}
	return nil
}

// HeteroAlphas returns the optimal single-round partition for heterogeneous
// nodes that all become available simultaneously, dispatched sequentially
// in slice order. Equalising consecutive finish times gives the recurrence
//
//	α_{i+1} = α_i · Cps_i / (Cms_{i+1} + Cps_{i+1})
//
// whose homogeneous special case is the geometric αᵢ = βⁱ⁻¹·α₁ of
// Params.Alphas. Entries are positive and sum to 1 (up to rounding).
func HeteroAlphas(costs []NodeCost) ([]float64, error) {
	alphas := make([]float64, len(costs))
	if err := HeteroAlphasInto(alphas, costs); err != nil {
		return nil, err
	}
	return alphas, nil
}

// HeteroAlphasInto is HeteroAlphas writing into alphas, which must be as
// long as costs.
func HeteroAlphasInto(alphas []float64, costs []NodeCost) error {
	if err := validateCosts(costs); err != nil {
		return err
	}
	if len(alphas) != len(costs) {
		return fmt.Errorf("dlt: HeteroAlphasInto: %d alphas for %d costs: %w", len(alphas), len(costs), errs.ErrBadConfig)
	}
	a1 := heteroAlpha1(costs, alphas)
	for i := range alphas {
		alphas[i] *= a1
	}
	return nil
}

// heteroAlpha1 returns α₁ = 1/(1 + Σ Π Cps_{j-1}/(Cms_j + Cps_j)) of the
// recurrence above and, when prods is non-nil, leaves the running products
// (α_i/α₁, prods[0] = 1) there.
func heteroAlpha1(costs []NodeCost, prods []float64) float64 {
	if prods != nil {
		prods[0] = 1
	}
	prod, sum := 1.0, 0.0
	for i := 1; i < len(costs); i++ {
		prod *= costs[i-1].Cps / (costs[i].Cms + costs[i].Cps)
		if prods != nil {
			prods[i] = prod
		}
		sum += prod
	}
	return 1 / (1 + sum)
}

// HeteroExecTime returns the optimal single-round execution time of a load
// σ on heterogeneous nodes that all become available at the same instant,
// dispatched sequentially in slice order — the generalisation of E(σ,n).
// Under the optimal partition every node finishes simultaneously, so the
// makespan is the first node's send-plus-compute time
//
//	E = α₁·σ·(Cms₁ + Cps₁)
//
// which for uniform costs reduces to σ·Cms/(1−βⁿ).
func HeteroExecTime(costs []NodeCost, sigma float64) (float64, error) {
	if sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return 0, fmt.Errorf("dlt: HeteroExecTime needs sigma >= 0, got %v: %w", sigma, errs.ErrBadConfig)
	}
	if err := validateCosts(costs); err != nil {
		return 0, err
	}
	return heteroAlpha1(costs, nil) * sigma * (costs[0].Cms + costs[0].Cps), nil
}

// HeteroMinNodesBound returns a safe lower bound on the number of nodes a
// task with data size σ needs to finish within the slack on a cluster with
// the given cost model: the homogeneous ñ_min bound evaluated at the
// model's componentwise-fastest coefficients. Because every real node is at
// least as slow, the true requirement can only be larger, so partitioners
// use the bound as the starting point of their upward node-count search.
// ok=false means the task is infeasible even on the optimistic cluster —
// and hence on the real one.
func HeteroMinNodesBound(m *CostModel, sigma, slack float64) (n int, ok bool) {
	f := m.Fastest()
	if f.Cms <= 0 {
		// A free link breaks the closed-form bound (β = 1); transmission
		// costs nothing in the optimistic cluster, so a single node needs
		// only its compute time and the bound degenerates to feasibility of
		// the slack itself.
		if slack <= 0 || math.IsNaN(slack) {
			return 0, false
		}
		return 1, true
	}
	return MinNodesBound(f.Params(), sigma, slack)
}

// SimulateDispatchHetero computes the exact per-node timeline for
// sequentially distributing a load σ, partitioned by alphas, to
// heterogeneous nodes with the given available times. costs, avail and
// alphas are parallel, in dispatch order; avail must be sorted
// non-decreasing. It generalises SimulateDispatch, whose homogeneous loop
// it reproduces operation for operation when every cost is equal.
func SimulateDispatchHetero(costs []NodeCost, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	d := new(Dispatch)
	if err := SimulateDispatchHeteroInto(d, costs, sigma, avail, alphas); err != nil {
		return nil, err
	}
	return d, nil
}

// SimulateDispatchHeteroInto is SimulateDispatchHetero writing into d, as
// SimulateDispatchInto does.
func SimulateDispatchHeteroInto(d *Dispatch, costs []NodeCost, sigma float64, avail, alphas []float64) error {
	if err := validateCosts(costs); err != nil {
		return err
	}
	n := len(costs)
	if len(avail) != n || len(alphas) != n {
		return fmt.Errorf("dlt: SimulateDispatchHetero: %d costs, %d avail times, %d alphas: %w",
			n, len(avail), len(alphas), errs.ErrBadConfig)
	}
	return d.simulate("SimulateDispatchHetero", Params{}, costs, sigma, avail, alphas)
}
