// Package multiround implements the paper's stated future work (Sec. 6):
// multi-round (multi-installment) dispatch on top of the heterogeneous-
// model partition, to further improve Inserted Idle Time utilisation.
//
// Each node's DLT-assigned share is split into R equal installments. The
// head node cycles through the nodes R times on its sequential link; a node
// may receive a later installment while computing an earlier one (the
// standard multi-installment assumption of Bharadwaj, Robertazzi and Ghose
// [10]), so computation starts earlier and overlaps communication. The
// admission estimate is the exactly simulated completion time, so the
// real-time guarantee is preserved without a new theorem; when a single
// round is better for a particular task (large per-chunk latency), the
// partitioner falls back to the single-round plan.
package multiround

import (
	"fmt"
	"math"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

// Timeline is the exact execution timeline of a multi-round dispatch.
type Timeline struct {
	Finish     []float64 // per node: completion of its last installment
	Completion float64   // max over Finish
}

// Schedule simulates dispatching a load σ to nodes with the given available
// times (sorted non-decreasing), where node i receives totals[i]·σ split
// into `rounds` equal installments, transmitted round-robin (round 1 to all
// nodes in order, then round 2, …) over the sequential link.
func Schedule(p dlt.Params, sigma float64, avail, totals []float64, rounds int) (*Timeline, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(avail)
	if n == 0 || len(totals) != n {
		return nil, fmt.Errorf("multiround: %d avail times, %d totals", n, len(totals))
	}
	if rounds < 1 {
		return nil, fmt.Errorf("multiround: rounds must be >= 1, got %d", rounds)
	}
	if !(sigma >= 0) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("multiround: invalid sigma %v", sigma)
	}
	for i := 1; i < n; i++ {
		if avail[i] < avail[i-1] {
			return nil, fmt.Errorf("multiround: avail times not sorted at %d", i)
		}
	}
	linkFree := math.Inf(-1)
	compEnd := make([]float64, n)
	for i := range compEnd {
		compEnd[i] = math.Inf(-1)
	}
	tl := &Timeline{Finish: make([]float64, n), Completion: math.Inf(-1)}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if totals[i] < 0 {
				return nil, fmt.Errorf("multiround: negative total[%d]=%v", i, totals[i])
			}
			chunk := totals[i] * sigma / float64(rounds)
			sendStart := math.Max(linkFree, avail[i])
			sendEnd := sendStart + chunk*p.Cms
			linkFree = sendEnd
			compStart := math.Max(sendEnd, compEnd[i])
			compEnd[i] = compStart + chunk*p.Cps
		}
	}
	for i := 0; i < n; i++ {
		tl.Finish[i] = math.Max(compEnd[i], avail[i])
		if tl.Finish[i] > tl.Completion {
			tl.Completion = tl.Finish[i]
		}
	}
	return tl, nil
}

// ScheduleHetero is Schedule over per-node cost coefficients: node i's
// installments are transmitted at its own Cms_i and computed at its own
// Cps_i. costs, avail and totals are parallel, in dispatch order. With
// every cost equal it reproduces Schedule operation for operation.
func ScheduleHetero(costs []dlt.NodeCost, sigma float64, avail, totals []float64, rounds int) (*Timeline, error) {
	n := len(costs)
	if n == 0 || len(avail) != n || len(totals) != n {
		return nil, fmt.Errorf("multiround: %d costs, %d avail times, %d totals", n, len(avail), len(totals))
	}
	for i, c := range costs {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("multiround: costs[%d]: %w", i, err)
		}
	}
	if rounds < 1 {
		return nil, fmt.Errorf("multiround: rounds must be >= 1, got %d", rounds)
	}
	if !(sigma >= 0) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("multiround: invalid sigma %v", sigma)
	}
	for i := 1; i < n; i++ {
		if avail[i] < avail[i-1] {
			return nil, fmt.Errorf("multiround: avail times not sorted at %d", i)
		}
	}
	linkFree := math.Inf(-1)
	compEnd := make([]float64, n)
	for i := range compEnd {
		compEnd[i] = math.Inf(-1)
	}
	tl := &Timeline{Finish: make([]float64, n), Completion: math.Inf(-1)}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if totals[i] < 0 {
				return nil, fmt.Errorf("multiround: negative total[%d]=%v", i, totals[i])
			}
			chunk := totals[i] * sigma / float64(rounds)
			sendStart := math.Max(linkFree, avail[i])
			sendEnd := sendStart + chunk*costs[i].Cms
			linkFree = sendEnd
			compStart := math.Max(sendEnd, compEnd[i])
			compEnd[i] = compStart + chunk*costs[i].Cps
		}
	}
	for i := 0; i < n; i++ {
		tl.Finish[i] = math.Max(compEnd[i], avail[i])
		if tl.Finish[i] > tl.Completion {
			tl.Completion = tl.Finish[i]
		}
	}
	return tl, nil
}

// Partitioner is an rt.Partitioner implementing the multi-round extension.
// Create one with New.
type Partitioner struct {
	rounds int
}

// New returns a multi-round partitioner with the given number of
// installments per node. rounds = 1 degenerates to single-round dispatch of
// the heterogeneous-model partition, but — like every multi-round plan —
// admission is checked against the exact simulated timeline rather than the
// Eq. 6 upper bound, so it can admit slightly more than IITDLT.
func New(rounds int) (Partitioner, error) {
	if rounds < 1 {
		return Partitioner{}, fmt.Errorf("multiround: rounds must be >= 1, got %d", rounds)
	}
	return Partitioner{rounds: rounds}, nil
}

// Rounds returns the configured number of installments.
func (p Partitioner) Rounds() int { return p.rounds }

// Name implements rt.Partitioner.
func (p Partitioner) Name() string { return fmt.Sprintf("dlt-mr%d", p.rounds) }

// FastReject implements rt.FastRejecter. The node search starts at the
// same ñ_min(t) bound as the single-round partitioners, and both the
// multi-round and the single-round-fallback completion estimates strictly
// exceed the shared lower bounds (the latest required node's release, and
// the sequential transmission of the whole load), so the min-nodes fast
// reject is sound for the min of the two.
func (p Partitioner) FastReject(ctx *rt.PlanContext, t *rt.Task) bool {
	return ctx.FastRejectMinNodes(t)
}

// Plan implements rt.Partitioner. The node count follows the same ñ_min(t)
// rule as the single-round IIT-DLT partitioner (so comparing the two
// isolates the value of multi-round dispatch); the chosen node set is then
// evaluated with the exact multi-round timeline, and whichever of the
// multi-round and single-round schedules completes earlier is returned.
// Because the multi-round estimate is an exact simulation (and the
// single-round estimate is the Theorem-4 upper bound), admission against it
// preserves the real-time guarantee.
func (p Partitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	if ctx.Prior != nil {
		return ctx.KeepPriorMinNodes(t)
	}
	return ctx.SealMinNodes(p.plan(ctx, t))
}

// plan is the fresh-plan half of Plan.
func (p Partitioner) plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	if cm := ctx.Costs; cm != nil && !cm.Uniform() {
		return p.planHetero(cm, ctx, t)
	}
	floor := math.Max(ctx.Now, t.Arrival)
	absD := t.AbsDeadline()
	slack := absD - floor
	n0, ok := dlt.MinNodesBound(ctx.P, t.Sigma, slack)
	if !ok || n0 > ctx.N {
		return nil, rt.ErrInfeasible
	}
	eps := 1e-9 * math.Max(1, math.Abs(absD))
	for n := n0; n <= ctx.N; n++ {
		ids, starts := ctx.ClampedStarts(t, n)
		m, err := core.New(ctx.P, t.Sigma, starts)
		if err != nil {
			return nil, fmt.Errorf("multiround: heterogeneous model: %w", err)
		}
		tl, err := Schedule(ctx.P, t.Sigma, starts, m.Alphas(), p.rounds)
		if err != nil {
			return nil, err
		}
		srEst := m.EstCompletion()
		if math.Min(tl.Completion, srEst) > absD+eps {
			// Expand beyond ñ_min(t) when waiting pushed the completion
			// past the deadline, as the single-round partitioner does.
			continue
		}
		if tl.Completion <= srEst {
			release := make([]float64, n)
			copy(release, tl.Finish)
			return &rt.Plan{
				Task:    t,
				Nodes:   ids,
				Starts:  starts,
				Release: release,
				Alphas:  m.Alphas(),
				Est:     tl.Completion,
				Rounds:  p.rounds,
			}, nil
		}
		// Single-round dispatch is better for this task (per-chunk latency
		// outweighs the overlap); fall back to the exact single-round
		// timeline.
		d, err := m.Dispatch()
		if err != nil {
			return nil, fmt.Errorf("multiround: single-round dispatch: %w", err)
		}
		release := make([]float64, n)
		for i := range release {
			release[i] = math.Max(d.Finish[i], starts[i])
		}
		return &rt.Plan{
			Task:    t,
			Nodes:   ids,
			Starts:  starts,
			Release: release,
			Alphas:  m.Alphas(),
			Est:     srEst,
			Rounds:  1,
		}, nil
	}
	return nil, rt.ErrInfeasible
}

// planHetero is the per-node-cost branch of Plan: the heterogeneous model
// partition of core.NewHetero, installments at each node's own
// coefficients, and both the multi-round and the single-round fallback
// admitted against exactly simulated timelines (the Theorem-4 bound is not
// available for per-node Cms, and exact simulation preserves the hard
// real-time guarantee by itself).
func (p Partitioner) planHetero(cm *dlt.CostModel, ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	floor := math.Max(ctx.Now, t.Arrival)
	absD := t.AbsDeadline()
	slack := absD - floor
	n0, ok := dlt.HeteroMinNodesBound(cm, t.Sigma, slack)
	if !ok || n0 > ctx.N {
		return nil, rt.ErrInfeasible
	}
	eps := 1e-9 * math.Max(1, math.Abs(absD))
	for n := n0; n <= ctx.N; n++ {
		ids, starts := ctx.ClampedStarts(t, n)
		costs := cm.Select(ids)
		m, err := core.NewHetero(costs, t.Sigma, starts)
		if err != nil {
			return nil, fmt.Errorf("multiround: heterogeneous model: %w", err)
		}
		tl, err := ScheduleHetero(costs, t.Sigma, starts, m.Alphas(), p.rounds)
		if err != nil {
			return nil, err
		}
		d, err := m.Dispatch()
		if err != nil {
			return nil, fmt.Errorf("multiround: single-round dispatch: %w", err)
		}
		srEst := d.Completion
		if math.Min(tl.Completion, srEst) > absD+eps {
			continue
		}
		if tl.Completion <= srEst {
			release := make([]float64, n)
			for i := range release {
				release[i] = math.Max(tl.Finish[i], starts[i])
			}
			return &rt.Plan{
				Task:    t,
				Nodes:   ids,
				Starts:  starts,
				Release: release,
				Alphas:  m.Alphas(),
				Est:     tl.Completion,
				Rounds:  p.rounds,
			}, nil
		}
		release := make([]float64, n)
		for i := range release {
			release[i] = math.Max(d.Finish[i], starts[i])
		}
		return &rt.Plan{
			Task:    t,
			Nodes:   ids,
			Starts:  starts,
			Release: release,
			Alphas:  m.Alphas(),
			Est:     srEst,
			Rounds:  1,
		}, nil
	}
	return nil, rt.ErrInfeasible
}
