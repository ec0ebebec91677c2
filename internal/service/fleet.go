package service

import (
	"fmt"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// NodeState re-exports the cluster lifecycle states so Engine consumers
// (the wire server, the pool) never import the cluster package directly.
type NodeState = cluster.NodeState

// Node lifecycle states.
const (
	NodeUp       = cluster.NodeUp
	NodeDraining = cluster.NodeDraining
	NodeDown     = cluster.NodeDown
)

// FleetResult reports the outcome of one fleet operation. Displaced counts
// the admitted-but-uncommitted tasks that lost their seat; Readmitted the
// displaced tasks re-seated on another shard through the normal
// schedulability test (always 0 for a standalone service, which has
// nowhere else to put them — replanning the same queue on the same shard
// cannot revive a task the whole-queue test just dropped).
type FleetResult struct {
	Node       int       `json:"node"`
	State      NodeState `json:"state"`
	Displaced  int       `json:"displaced"`
	Readmitted int       `json:"readmitted"`
}

// SetNodeState moves one node into st: NodeDraining stops placing new work
// on it (committed work runs to completion), NodeDown removes its capacity
// now, NodeUp returns it to service. On a capacity loss the waiting plans
// touching the node are replanned onto the live fleet, and tasks that no
// longer fit are displaced (EventDisplace with ReasonNodeUnavailable on the
// stream). The model keeps committed transmissions on their timeline
// (interrupted work is not re-simulated), so draining and failing differ
// only in the reported state until the node is restored. A node's release
// time is never touched, so a fail-then-restore cycle with no interim
// admissions leaves the scheduler bit-identical to one that never failed;
// restoring displaces nothing, and waiting plans pick the node up on the
// next admission test. An unknown node or state is ErrBadConfig.
func (s *Service) SetNodeState(node int, st NodeState) (FleetResult, error) {
	disp, err := s.TransitionNode(node, st)
	if err != nil {
		return FleetResult{}, err
	}
	return FleetResult{Node: node, State: st, Displaced: len(disp)}, nil
}

// TransitionNode is SetNodeState returning the displaced tasks themselves,
// so a pool can try to re-admit them on its other shards.
func (s *Service) TransitionNode(node int, st NodeState) ([]rt.Task, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, fmt.Errorf("service: closed: %w", errs.ErrClusterBusy)
	}
	now := s.clock.Now()
	// Commit everything already due first: a transmission that should have
	// started by now is committed work, not displaceable.
	if err := s.commitDueLocked(now); err != nil {
		return nil, err
	}
	disp, err := s.sched.SetNodeState(node, st, now)
	if err != nil {
		return nil, err
	}
	s.refreshFleetLocked()
	var out []rt.Task
	for _, t := range disp {
		s.displaced.Add(1)
		s.publishLocked(Event{Kind: EventDisplace, Time: now, Task: *t, Reason: errs.ReasonNodeUnavailable})
		out = append(out, *t)
		s.freeTask(t)
	}
	return out, nil
}

// AddNode grows the cluster by one node with the given cost coefficients,
// available from the current clock reading, and returns its id. Existing
// ids and release times are untouched.
func (s *Service) AddNode(nc dlt.NodeCost) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, fmt.Errorf("service: closed: %w", errs.ErrClusterBusy)
	}
	id, err := s.sched.AddNode(nc, s.clock.Now())
	if err != nil {
		return 0, err
	}
	s.nodesTotal.Store(int64(s.cl.N()))
	s.refreshFleetLocked()
	return id, nil
}

// NodeStates returns every node's lifecycle state, indexed by node id.
func (s *Service) NodeStates() []NodeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cl.NodeStateList()
}

// LiveNodes returns the number of placeable (NodeUp) nodes — lock-free,
// sampled by the pool's placement layer on every submit.
func (s *Service) LiveNodes() int { return int(s.nodesUp.Load()) }

// Nodes returns the current cluster size (it grows with AddNode) without
// touching the admission lock.
func (s *Service) Nodes() int { return int(s.nodesTotal.Load()) }

// refreshFleetLocked re-derives the lock-free fleet mirrors from the cluster's node states. Callers hold s.mu (or, during New, have
// exclusive access).
func (s *Service) refreshFleetLocked() {
	up, draining, down := s.cl.StateCounts()
	s.nodesUp.Store(int64(up))
	s.nodesDraining.Store(int64(draining))
	s.nodesDown.Store(int64(down))
}
