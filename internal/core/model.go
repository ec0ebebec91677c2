// Package core implements the primary contribution of Lin, Lu, Deogun and
// Goddard, "Real-Time Divisible Load Scheduling with Different Processor
// Available Times" (TR-UNL-CSE-2007-0013 / ICPP 2007): the transformation
// of a homogeneous cluster whose processors become available to a task at
// different times into an equivalent heterogeneous cluster in which all
// processors are allocated simultaneously, and the DLT analysis on that
// model — the load partition α (Eqs. 4–5), the execution-time estimate
// Ê(σ,n) (Eq. 6), the completion-time estimate r_n + Ê (Eq. 7), and the
// Theorem-4 guarantee that the actual completion in the homogeneous cluster
// never exceeds the estimate.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rtdls/internal/dlt"
)

// Model is the heterogeneous cluster model constructed for one task from
// the available times of the homogeneous processors assigned to it
// (Sec. 4.1.1 A of the paper). Processor i (0-based here; P_{i+1} in the
// paper) becomes available at Avail[i]; in the model all n processors are
// allocated at Rn = Avail[n-1] and processor i is given the inflated power
//
//	CpsI[i] = E/(E + Rn − Avail[i]) · Cps          (Eq. 1)
//
// where E = E(σ,n) is the no-IIT execution time on n nodes. Link speeds are
// unchanged (Eq. 2). A Model changes only through Reset and ResetHetero,
// which rebuild it in place for another input.
type Model struct {
	p     dlt.Params
	sigma float64
	avail []float64 // sorted non-decreasing, len n ≥ 1
	rn    float64   // avail[n-1]
	e     float64   // E(σ,n): no-IIT execution time
	cpsI  []float64 // heterogeneous unit processing costs (Eq. 1)

	alphas []float64 // optimal partition on the model (Eqs. 4–5)
	exec   float64   // Ê(σ,n) (Eq. 6)

	// costs holds per-node base coefficients for models built over an
	// already-heterogeneous cluster (NewHetero); nil for the paper's
	// homogeneous construction, whose code paths are unchanged.
	costs []dlt.NodeCost
	// order maps each sorted processor position to its index in the
	// slices the caller passed to NewHetero; nil for homogeneous models.
	order []int
	pows  []float64 // pows[i] = βⁱ of powP once asked for, else 0
	powP  dlt.Params
}

// New constructs the heterogeneous model for a task of data size sigma
// whose assigned homogeneous processors have the given available times.
// The avail slice is copied and sorted; it must be non-empty and free of
// NaN/Inf, and sigma must be positive and finite.
func New(p dlt.Params, sigma float64, avail []float64) (*Model, error) {
	m := new(Model)
	if err := m.Reset(p, sigma, avail); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rebuilds m in place as New(p, sigma, avail) would build it, reusing
// its buffers — the form for a caller that evaluates one candidate node
// set after another. Slices an accessor returned earlier are overwritten.
// On error m is unchanged.
func (m *Model) Reset(p dlt.Params, sigma float64, avail []float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := checkInput(sigma, avail); err != nil {
		return err
	}
	n := len(avail)
	m.p, m.sigma = p, sigma
	m.costs, m.order = nil, nil
	m.avail = append(m.avail[:0], avail...)
	if !sort.Float64sAreSorted(m.avail) {
		sort.Float64s(m.avail)
	}
	m.rn = m.avail[n-1]
	m.e = m.NoIITExecTimeFor(p, sigma, n)
	m.cpsI = slices.Grow(m.cpsI[:0], n)[:n]
	for i, ri := range m.avail {
		m.cpsI[i] = m.e / (m.e + m.rn - ri) * p.Cps
	}
	m.computePartition()
	return nil
}

// NoIITExecTimeFor is p.ExecTime(sigma, n) bit for bit. Like Reset it writes
// m: βⁿ comes from a table kept from the second call under one p on.
func (m *Model) NoIITExecTimeFor(p dlt.Params, sigma float64, n int) float64 {
	if m.powP != p {
		m.powP = p
		clear(m.pows)
		return p.ExecTime(sigma, n)
	}
	if n >= len(m.pows) {
		m.pows = append(m.pows, make([]float64, n+1-len(m.pows))...)
	}
	if m.pows[n] == 0 {
		m.pows[n] = math.Pow(p.Beta(), float64(n))
	}
	return sigma * p.Cms / (1 - m.pows[n]) // ExecTime's expression
}

// checkInput validates what both constructions require of the task size
// and the available times.
func checkInput(sigma float64, avail []float64) error {
	if !(sigma > 0) || math.IsInf(sigma, 0) {
		return fmt.Errorf("core: sigma must be positive and finite, got %v", sigma)
	}
	if len(avail) == 0 {
		return fmt.Errorf("core: need at least one processor available time")
	}
	for i, r := range avail {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("core: avail[%d] = %v is not a finite time", i, r)
		}
	}
	return nil
}

// computePartition evaluates the recursion of Sec. 4.1.1 B over the
// processors' own link costs (the shared Cms of the paper, or Cms_i for a
// model over per-node coefficients, see NewHetero):
//
//	X_i = Cps_{i-1} / (Cms_i + Cps_i)     for i = 2..n
//	α_1 = 1 / (1 + Σ_{i=2..n} Π_{j=2..i} X_j)
//	α_i = Π_{j=2..i} X_j · α_1
//	Ê   = σ·Σ_j α_j·Cms_j + α_n·σ·Cps_n   (Eq. 6: σ·Cms when Cms is shared)
//
// The running products are kept in alphas until α_1 is known.
func (m *Model) computePartition() {
	n := len(m.avail)
	m.alphas = slices.Grow(m.alphas[:0], n)[:n]
	prod := 1.0 // Π_{j=2..i} X_j, running
	sum := 0.0  // Σ_{i=2..n} Π X_j
	m.alphas[0] = 1
	for i := 1; i < n; i++ {
		prod *= m.cpsI[i-1] / (m.baseCms(i) + m.cpsI[i])
		m.alphas[i] = prod
		sum += prod
	}
	a1 := 1 / (1 + sum)
	for i := range m.alphas {
		m.alphas[i] *= a1
	}
	send := m.p.Cms // Σ_j α_j·Cms_j is the shared Cms itself
	if m.costs != nil {
		send = 0
		for i, a := range m.alphas {
			send += a * m.costs[i].Cms
		}
	}
	m.exec = m.sigma*send + m.alphas[n-1]*m.sigma*m.cpsI[n-1]
}

// N returns the number of processors in the model.
func (m *Model) N() int { return len(m.avail) }

// Sigma returns the task data size the model was built for.
func (m *Model) Sigma() float64 { return m.sigma }

// Params returns the homogeneous cluster cost parameters. For a model
// built with NewHetero it is the zero value; use NodeCosts instead.
func (m *Model) Params() dlt.Params { return m.p }

// Rn returns r_n, the latest processor available time — the instant at
// which all n heterogeneous nodes are considered allocated.
func (m *Model) Rn() float64 { return m.rn }

// NoIITExecTime returns E(σ,n), the execution time when the inserted idle
// times are not utilised (the [22] baseline and the E of Eq. 1).
func (m *Model) NoIITExecTime() float64 { return m.e }

// Avail returns the sorted processor available times. The returned slice
// is shared with the model and must not be modified.
func (m *Model) Avail() []float64 { return m.avail }

// CpsI returns the heterogeneous unit processing costs Cps_i of Eq. 1,
// in processor order. The slice is shared with the model and must not be
// modified. CpsI[n-1] always equals the last processor's own Cps; for the
// homogeneous construction the sequence is non-decreasing
// (earlier-available processors are modelled as more powerful).
func (m *Model) CpsI() []float64 { return m.cpsI }

// Alphas returns the data distribution vector α of Eqs. 4–5: Alphas()[i] is
// the fraction of the load assigned to the processor with the i-th earliest
// available time. Entries are positive and sum to 1 (up to rounding). The
// slice is shared with the model and must not be modified.
func (m *Model) Alphas() []float64 { return m.alphas }

// ExecTime returns Ê(σ,n) of Eq. 6, the execution time of the task in the
// heterogeneous model, measured from Rn. Eq. 9 guarantees
// ExecTime() ≤ NoIITExecTime().
func (m *Model) ExecTime() float64 { return m.exec }

// EstCompletion returns the completion-time estimate C(n) = Rn + Ê(σ,n)
// (Eq. 7). By Theorem 4, executing the α-partition on the homogeneous
// cluster at the original staggered available times completes no later than
// this estimate, so a scheduler may admit tasks against it.
func (m *Model) EstCompletion() float64 { return m.rn + m.exec }

// Dispatch simulates the actual sequential dispatch of the α-partition on
// the homogeneous cluster at the staggered available times, returning exact
// per-node send and finish times. Theorem 4 asserts
// Dispatch().Completion ≤ EstCompletion().
func (m *Model) Dispatch() (*dlt.Dispatch, error) {
	d := new(dlt.Dispatch)
	if err := m.DispatchInto(d); err != nil {
		return nil, err
	}
	return d, nil
}

// DispatchInto is Dispatch writing into d, reusing its timelines.
func (m *Model) DispatchInto(d *dlt.Dispatch) error {
	if m.costs != nil {
		return dlt.SimulateDispatchHeteroInto(d, m.costs, m.sigma, m.avail, m.alphas)
	}
	return dlt.SimulateDispatchInto(d, m.p, m.sigma, m.avail, m.alphas)
}

// MakespanFor evaluates the heterogeneous model's execution time for an
// arbitrary load partition: all n nodes are allocated at Rn, chunks are
// transmitted sequentially in node order, and node i computes its chunk at
// unit cost CpsI[i]. The model's own Alphas() minimise this quantity (all
// nodes finish simultaneously — Eq. 3); MakespanFor lets tests and analyses
// verify that optimality directly. It panics if len(alphas) != N().
func (m *Model) MakespanFor(alphas []float64) float64 {
	if len(alphas) != len(m.avail) {
		panic(fmt.Sprintf("core: MakespanFor: %d alphas for %d nodes", len(alphas), len(m.avail)))
	}
	sendEnd := 0.0
	makespan := 0.0
	for i, a := range alphas {
		sendEnd += a * m.sigma * m.baseCms(i)
		finish := sendEnd + a*m.sigma*m.cpsI[i]
		if finish > makespan {
			makespan = finish
		}
	}
	return makespan
}
