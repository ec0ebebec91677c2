package core

import (
	"fmt"
	"slices"
	"sort"

	"rtdls/internal/dlt"
)

// NewHetero constructs the availability-transformation model for a cluster
// that is *already* heterogeneous: processor i has its own linear cost
// coefficients costs[i] = (Cms_i, Cps_i) and becomes available at avail[i]
// (the two slices are parallel and are sorted together by available time).
//
// The construction generalises Eqs. 1–6 node by node. With
// E = E({costs}, σ) the optimal execution time when every node starts at
// r_n (dlt.HeteroExecTime), each processor's compute cost is inflated to
//
//	CpsI_i = E/(E + r_n − r_i) · Cps_i
//
// — exactly Eq. 1 applied to that node's own Cps_i — links keep their own
// Cms_i (Eq. 2), and the simultaneous-finish partition solves
//
//	X_i = CpsI_{i-1} / (Cms_i + CpsI_i),   α_i = Π X_j · α_1
//	Ê   = σ·Σ_j α_j·Cms_j + α_n·σ·CpsI_n
//
// — the recurrence of computePartition with each link's own cost. When
// every cost pair is equal this is the paper's original model up to
// floating-point association; callers that need bit-identical legacy
// behaviour for uniform costs use New instead (the rt-layer partitioners
// route uniform cost models there).
//
// The paper's Theorem 4 is proved for a common Cms; with per-node link
// costs the Ê bound is no longer guaranteed, so schedulers admit
// heterogeneous plans against the exact Dispatch timeline instead of
// EstCompletion. Ê remains exact for the model cluster itself (all model
// nodes finish simultaneously at Rn + Ê).
//
// Every accessor of the returned model is in processor order — sorted by
// available time, ties broken by input position; use Order to map results
// back to the caller's indexing.
func NewHetero(costs []dlt.NodeCost, sigma float64, avail []float64) (*Model, error) {
	m := new(Model)
	if err := m.ResetHetero(costs, sigma, avail); err != nil {
		return nil, err
	}
	return m, nil
}

// ResetHetero rebuilds m in place as NewHetero(costs, sigma, avail) would
// build it, under the contract of Reset.
func (m *Model) ResetHetero(costs []dlt.NodeCost, sigma float64, avail []float64) error {
	n := len(avail)
	if n == 0 {
		return fmt.Errorf("core: need at least one processor available time")
	}
	if len(costs) != n {
		return fmt.Errorf("core: %d node costs for %d available times", len(costs), n)
	}
	for i, c := range costs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("core: costs[%d]: %w", i, err)
		}
	}
	if err := checkInput(sigma, avail); err != nil {
		return err
	}
	// Sort (avail, cost) pairs together by available time, stably, so each
	// processor keeps its own coefficients. The schedulers pass times that
	// are sorted already: the order is then the identity and nothing moves.
	var perm []int
	if !sort.Float64sAreSorted(avail) {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(x, y int) bool { return avail[perm[x]] < avail[perm[y]] })
		sa := make([]float64, n)
		sc := make([]dlt.NodeCost, n)
		for i, j := range perm {
			sa[i] = avail[j]
			sc[i] = costs[j]
		}
		avail, costs = sa, sc
	}
	e, err := dlt.HeteroExecTime(costs, sigma)
	if err != nil {
		return fmt.Errorf("core: no-IIT execution time: %w", err)
	}

	m.p, m.sigma = dlt.Params{}, sigma
	m.avail = append(m.avail[:0], avail...)
	m.costs = append(m.costs[:0], costs...)
	m.order = slices.Grow(m.order[:0], n)[:n]
	if perm != nil {
		copy(m.order, perm)
	} else {
		for i := range m.order {
			m.order[i] = i
		}
	}
	m.rn = m.avail[n-1]
	m.e = e
	m.cpsI = slices.Grow(m.cpsI[:0], n)[:n]
	for i, ri := range m.avail {
		m.cpsI[i] = e / (e + m.rn - ri) * m.costs[i].Cps
	}
	m.computePartition()
	return nil
}

// Hetero reports whether the model was built over per-node cost
// coefficients (NewHetero) rather than the paper's single homogeneous pair.
func (m *Model) Hetero() bool { return m.costs != nil }

// NodeCosts returns the per-node cost coefficients in processor order
// (sorted by available time), or nil for a homogeneous model. The slice is
// shared with the model and must not be modified.
func (m *Model) NodeCosts() []dlt.NodeCost { return m.costs }

// Order maps each processor position back to the caller's input: every
// accessor (Avail, NodeCosts, CpsI, Alphas, the Dispatch timelines) is
// ordered by available time, and position i corresponds to index
// Order()[i] of the avail/costs slices passed to NewHetero. The stable
// sort breaks availability ties by input index. Order returns nil for
// homogeneous models, where all processors are interchangeable. The slice
// is shared with the model and must not be modified.
func (m *Model) Order() []int { return m.order }

// baseCms returns processor i's own link cost.
func (m *Model) baseCms(i int) float64 {
	if m.costs != nil {
		return m.costs[i].Cms
	}
	return m.p.Cms
}

// baseCps returns processor i's own compute cost before Eq. 1 inflation.
func (m *Model) baseCps(i int) float64 {
	if m.costs != nil {
		return m.costs[i].Cps
	}
	return m.p.Cps
}
