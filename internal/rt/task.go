// Package rt implements the paper's real-time divisible load scheduling
// framework (Sec. 4): the aperiodic task model, EDF/FIFO execution-order
// policies, the pluggable task-partitioning module (DLT-based with IIT
// utilisation, the OPR baselines of [22], and User-Split), and the Fig. 2
// schedulability test with admission control.
package rt

import (
	"fmt"
	"math"
	"strings"

	"rtdls/internal/errs"
)

// Task is an aperiodic arbitrarily divisible task T = (A, σ, D): a single
// invocation with arrival time A, total data size σ and relative deadline D
// (Sec. 3). UserN carries the node count a user would request under the
// User-Split practice; it is 0 when unset or when no node count can meet
// the deadline (Nmin > N).
type Task struct {
	ID          int64
	Arrival     float64 // A
	Sigma       float64 // σ
	RelDeadline float64 // D
	UserN       int     // user-requested nodes for User-Split; 0 = infeasible/unset
}

// AbsDeadline returns the absolute deadline A + D.
func (t *Task) AbsDeadline() float64 { return t.Arrival + t.RelDeadline }

// Validate reports whether the task parameters are usable.
func (t *Task) Validate() error {
	if math.IsNaN(t.Arrival) || math.IsInf(t.Arrival, 0) {
		return fmt.Errorf("rt: task %d: non-finite arrival %v: %w", t.ID, t.Arrival, errs.ErrBadConfig)
	}
	if !(t.Sigma > 0) || math.IsInf(t.Sigma, 0) {
		return fmt.Errorf("rt: task %d: data size must be positive and finite, got %v: %w", t.ID, t.Sigma, errs.ErrBadConfig)
	}
	if !(t.RelDeadline > 0) || math.IsInf(t.RelDeadline, 0) {
		return fmt.Errorf("rt: task %d: relative deadline must be positive and finite, got %v: %w", t.ID, t.RelDeadline, errs.ErrBadConfig)
	}
	return nil
}

// Policy selects the task execution order used by the schedulability test
// (the framework's Decision #1).
type Policy uint8

const (
	// FIFO orders tasks by arrival time (first in, first out).
	FIFO Policy = iota
	// EDF orders tasks by absolute deadline (earliest deadline first).
	EDF
)

// String returns the conventional name of the policy.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case EDF:
		return "EDF"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy parses "edf" or "fifo", in any letter case, into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch {
	case strings.EqualFold(s, "edf"):
		return EDF, nil
	case strings.EqualFold(s, "fifo"):
		return FIFO, nil
	default:
		return 0, fmt.Errorf("rt: unknown policy %q (want \"edf\" or \"fifo\"): %w", s, errs.ErrBadConfig)
	}
}

// Less reports whether task a precedes task b under the policy. Ties break
// by arrival time and then by task ID so the order is total and stable.
func (p Policy) Less(a, b *Task) bool {
	switch p {
	case EDF:
		da, db := a.AbsDeadline(), b.AbsDeadline()
		if da != db {
			return da < db
		}
	case FIFO:
		// fall through to arrival comparison
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}
