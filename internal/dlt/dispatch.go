package dlt

import (
	"fmt"
	"math"
	"slices"

	"rtdls/internal/errs"
)

// Dispatch records the exact timeline of a single-round sequential dispatch
// of a partitioned divisible load: the head node sends chunk i to node i
// only after finishing the transmission to node i-1, and a chunk cannot be
// sent before its node is available. Node i computes its chunk immediately
// after receiving it.
//
// All slices are indexed by node position (the same order as the avail
// vector passed to SimulateDispatch, i.e. nodes sorted by available time).
type Dispatch struct {
	SendStart []float64 // b_i: when transmission of chunk i begins
	SendEnd   []float64 // f_i = b_i + αᵢ·σ·Cms: when node i has its data
	Finish    []float64 // f_i + αᵢ·σ·Cps: when node i finishes computing
	// Completion is the task completion time, max_i Finish[i].
	Completion float64
}

// SimulateDispatch computes the exact per-node timeline for distributing a
// load σ partitioned by alphas to nodes with the given available times.
//
// avail must be sorted in non-decreasing order (the transmission order is
// the node order, and the paper always transmits to the earliest-available
// node first). alphas must have the same length as avail, with non-negative
// entries; it need not sum to exactly 1 (callers may dispatch a fraction of
// a task, as the multi-round extension does).
//
// This is the machinery behind Theorem 4: the actual per-node finish times
// it returns are compared against the heterogeneous-model estimate.
func SimulateDispatch(p Params, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	d := new(Dispatch)
	if err := SimulateDispatchInto(d, p, sigma, avail, alphas); err != nil {
		return nil, err
	}
	return d, nil
}

// SimulateDispatchInto is SimulateDispatch writing into d, whose three
// timelines are reused when they are long enough — the form for callers
// that simulate in a loop. On error d holds no usable timeline.
func SimulateDispatchInto(d *Dispatch, p Params, sigma float64, avail, alphas []float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := len(avail)
	if n == 0 {
		return fmt.Errorf("dlt: SimulateDispatch needs at least one node: %w", errs.ErrBadConfig)
	}
	if len(alphas) != n {
		return fmt.Errorf("dlt: SimulateDispatch: %d avail times but %d alphas: %w", n, len(alphas), errs.ErrBadConfig)
	}
	return d.simulate("SimulateDispatch", p, nil, sigma, avail, alphas)
}

// simulate runs the sequential dispatch into d for the public simulators,
// which have checked the coefficients and the lengths: node i costs
// costs[i], or p when costs is nil.
func (d *Dispatch) simulate(name string, p Params, costs []NodeCost, sigma float64, avail, alphas []float64) error {
	if sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return fmt.Errorf("dlt: %s: invalid sigma %v: %w", name, sigma, errs.ErrBadConfig)
	}
	n := len(avail)
	for i := 1; i < n; i++ {
		if avail[i] < avail[i-1] {
			return fmt.Errorf("dlt: %s: avail times not sorted (avail[%d]=%v < avail[%d]=%v): %w",
				name, i, avail[i], i-1, avail[i-1], errs.ErrBadConfig)
		}
	}
	d.SendStart = slices.Grow(d.SendStart[:0], n)[:n]
	d.SendEnd = slices.Grow(d.SendEnd[:0], n)[:n]
	d.Finish = slices.Grow(d.Finish[:0], n)[:n]
	d.Completion = math.Inf(-1) // max over finishes; times may be negative
	linkFree := math.Inf(-1)
	cms, cps := p.Cms, p.Cps
	for i := 0; i < n; i++ {
		if alphas[i] < 0 {
			return fmt.Errorf("dlt: %s: negative alpha[%d]=%v: %w", name, i, alphas[i], errs.ErrBadConfig)
		}
		if costs != nil {
			cms, cps = costs[i].Cms, costs[i].Cps
		}
		b := max(avail[i], linkFree)
		send := alphas[i] * sigma * cms
		comp := alphas[i] * sigma * cps
		d.SendStart[i] = b
		d.SendEnd[i] = b + send
		d.Finish[i] = b + send + comp
		linkFree = d.SendEnd[i]
		if d.Finish[i] > d.Completion {
			d.Completion = d.Finish[i]
		}
	}
	return nil
}
