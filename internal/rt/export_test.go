package rt

import "rtdls/internal/cluster"

// Cluster returns the cluster the scheduler owns, for tests that inspect it
// or change it behind the scheduler's back.
func (s *Scheduler) Cluster() *cluster.Cluster { return s.cl }

// Eligible returns the number of placeable nodes — callers size
// EarliestInto's k against it, not against N, when a mask is installed.
func (v *AvailView) Eligible() int { return v.eligible }

// ClampedStarts materialises r_k = max(Release(node_k), A_i, now) for the k
// earliest-available nodes into fresh slices, as the node search loads a
// candidate.
func (ctx *PlanContext) ClampedStarts(t *Task, k int) (ids []int, starts []float64) {
	ids = make([]int, k)
	starts = make([]float64, k)
	ctx.clampedInto(t, ids, starts)
	return ids, starts
}

// PlanFor returns the current plan for a waiting task, or nil, valid only
// until the scheduler's next call: tests inspect plans after replans.
func (s *Scheduler) PlanFor(taskID int64) *Plan {
	return s.q.planOf(taskID)
}
