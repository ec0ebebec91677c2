package dlt

import (
	"fmt"
	"math"
	"sort"

	"rtdls/internal/errs"
)

// The paper's system model ships only input data, because its target
// applications return a negligibly small result, and notes that "the
// extension to consider the transfer of output data using DLT is
// straightforward" (Sec. 3). This file provides that extension at the
// model level: result collection over the same sequential head-node link.

// OutputDispatch extends Dispatch with the result-collection phase.
type OutputDispatch struct {
	Dispatch
	// ResultStart and ResultEnd bracket each node's result transfer back
	// to the head node, indexed like the input slices.
	ResultStart []float64
	ResultEnd   []float64
	// OutputCompletion is when the last result reaches the head node; it
	// replaces Dispatch.Completion as the task completion time.
	OutputCompletion float64
}

// SimulateDispatchWithOutput models a single-round dispatch where node i
// additionally returns a result of size delta·αᵢ·σ (delta = output/input
// ratio, ≥ 0). Input chunks are transmitted exactly as in SimulateDispatch;
// results are collected over the same link, which is shared: a result
// transfer can start only when the node has finished computing, all input
// transmissions are done (input has absolute priority — it keeps the
// computation pipeline busy), and the link is free. Ready results are
// collected in compute-completion order.
//
// With delta = 0 the timeline reduces exactly to SimulateDispatch.
func SimulateDispatchWithOutput(p Params, sigma, delta float64, avail, alphas []float64) (*OutputDispatch, error) {
	if delta < 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("dlt: output ratio delta must be finite and >= 0, got %v: %w", delta, errs.ErrBadConfig)
	}
	d, err := SimulateDispatch(p, sigma, avail, alphas)
	if err != nil {
		return nil, err
	}
	n := len(avail)
	od := &OutputDispatch{
		Dispatch:    *d,
		ResultStart: make([]float64, n),
		ResultEnd:   make([]float64, n),
	}
	// The link is busy with input until the last SendEnd.
	linkFree := d.SendEnd[n-1]
	// Collect results in compute-completion order (stable on index).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return d.Finish[order[a]] < d.Finish[order[b]]
	})
	for _, i := range order {
		start := math.Max(d.Finish[i], linkFree)
		end := start + delta*alphas[i]*sigma*p.Cms
		od.ResultStart[i] = start
		od.ResultEnd[i] = end
		linkFree = end
		if end > od.OutputCompletion {
			od.OutputCompletion = end
		}
	}
	return od, nil
}
