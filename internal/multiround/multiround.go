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
	"slices"

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
	if n := len(avail); n == 0 || len(totals) != n {
		return nil, fmt.Errorf("multiround: %d avail times, %d totals", n, len(totals))
	}
	return newTimeline(p, nil, sigma, avail, totals, rounds)
}

// newTimeline is scheduleInto with a timeline of its own.
func newTimeline(p dlt.Params, costs []dlt.NodeCost, sigma float64, avail, totals []float64, rounds int) (*Timeline, error) {
	tl := &Timeline{Finish: make([]float64, len(avail))}
	var err error
	if tl.Completion, err = scheduleInto(tl.Finish, p, costs, sigma, avail, totals, rounds); err != nil {
		return nil, err
	}
	return tl, nil
}

// scheduleInto runs the simulation for Schedule and for the partitioner's
// estimate, whose inputs have checked coefficients and lengths: node i
// costs costs[i], or p when costs is nil. The per-node finish times go to
// finish, which holds each node's running computation end in between; the
// completion time is returned.
func scheduleInto(finish []float64, p dlt.Params, costs []dlt.NodeCost, sigma float64, avail, totals []float64, rounds int) (float64, error) {
	if rounds < 1 {
		return 0, fmt.Errorf("multiround: rounds must be >= 1, got %d", rounds)
	}
	if !(sigma >= 0) || math.IsInf(sigma, 0) {
		return 0, fmt.Errorf("multiround: invalid sigma %v", sigma)
	}
	for i := 1; i < len(avail); i++ {
		if avail[i] < avail[i-1] {
			return 0, fmt.Errorf("multiround: avail times not sorted at %d", i)
		}
	}
	linkFree := math.Inf(-1)
	for i := range finish {
		finish[i] = math.Inf(-1)
	}
	cms, cps := p.Cms, p.Cps
	for r := 0; r < rounds; r++ {
		for i := range finish {
			if totals[i] < 0 {
				return 0, fmt.Errorf("multiround: negative total[%d]=%v", i, totals[i])
			}
			if costs != nil {
				cms, cps = costs[i].Cms, costs[i].Cps
			}
			chunk := totals[i] * sigma / float64(rounds)
			sendStart := math.Max(linkFree, avail[i])
			sendEnd := sendStart + chunk*cms
			linkFree = sendEnd
			compStart := math.Max(sendEnd, finish[i])
			finish[i] = compStart + chunk*cps
		}
	}
	completion := math.Inf(-1)
	for i := range finish {
		finish[i] = math.Max(finish[i], avail[i])
		if finish[i] > completion {
			completion = finish[i]
		}
	}
	return completion, nil
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
// single-round estimate is the Theorem-4 upper bound, or on a heterogeneous
// cluster an exact simulation too), admission against it preserves the
// real-time guarantee.
func (p Partitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	return ctx.PlanMinNodes(t, p)
}

// Estimate implements rt.Estimator: the earlier of the single-round
// estimate of rt.IITDLT and the completion of the model's partition
// dispatched in installments, whose per-node finish times stay in c.Aux().
func (p Partitioner) Estimate(c *rt.Candidate) (float64, error) {
	single, err := rt.IITDLT{}.Estimate(c)
	if err != nil {
		return 0, fmt.Errorf("multiround: %w", err)
	}
	m, _ := c.Model() // built by the single-round estimate
	multi, err := scheduleInto(c.Aux(), c.P, c.Costs, c.Task.Sigma, c.Starts, m.Alphas(), p.rounds)
	if err != nil {
		return 0, err
	}
	return math.Min(multi, single), nil
}

// Finish implements rt.Estimator. When single-round dispatch is better for
// this task (per-chunk latency outweighs the overlap) the plan falls back
// to the exact single-round timeline.
func (p Partitioner) Finish(c *rt.Candidate, pl *rt.Plan) error {
	finish := c.Aux()
	if slices.Max(finish) > pl.Est {
		return rt.IITDLT{}.Finish(c, pl)
	}
	m, _ := c.Model()
	copy(pl.Release, finish)
	copy(pl.Alphas, m.Alphas())
	pl.Rounds = p.rounds
	return nil
}
