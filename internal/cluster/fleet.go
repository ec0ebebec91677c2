package cluster

import (
	"fmt"

	"rtdls/internal/dlt"
)

// NodeState is a processing node's lifecycle state. Only NodeUp nodes are
// eligible for new placements; Draining and Down nodes differ in what
// happens to work already committed onto them (a draining node finishes
// it, a failed node loses it — the scheduler layer accounts for the
// difference; the cluster only records the state).
type NodeState uint8

const (
	// NodeUp: the node accepts new placements.
	NodeUp NodeState = iota
	// NodeDraining: no new placements; committed work runs to completion.
	NodeDraining
	// NodeDown: no new placements; the node's capacity is gone now.
	NodeDown
)

// String returns the state's wire token.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	default:
		return fmt.Sprintf("NodeState(%d)", uint8(s))
	}
}

// MarshalText encodes the state as its wire token, so JSON carries
// "draining" rather than a number.
func (s NodeState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a wire token written by MarshalText.
func (s *NodeState) UnmarshalText(b []byte) error {
	for st := NodeUp; st <= NodeDown; st++ {
		if st.String() == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown node state %q", b)
}

// SetNodeState transitions node id into the given state. Any transition is
// allowed (drain→fail, fail→restore, ...). The node's release time and
// busy accounting are deliberately untouched: state only gates placement
// eligibility, so a fail-then-restore cycle with no interim commits leaves
// the cluster bit-identical to one that never failed.
func (c *Cluster) SetNodeState(id int, st NodeState) error {
	if id < 0 || id >= len(c.avail) {
		return fmt.Errorf("cluster: SetNodeState: node id %d out of range [0,%d)", id, len(c.avail))
	}
	switch st {
	case NodeUp, NodeDraining, NodeDown:
	default:
		return fmt.Errorf("cluster: SetNodeState: unknown state %d", st)
	}
	c.ensureState()
	c.state[id] = st
	return nil
}

// NodeStateList returns a copy of every node's state, indexed by node id.
func (c *Cluster) NodeStateList() []NodeState {
	out := make([]NodeState, len(c.avail))
	copy(out, c.state) // nil state ⇒ all NodeUp (the zero value)
	return out
}

// LiveNodes returns the number of NodeUp nodes — the capacity the
// schedulability test may plan onto.
func (c *Cluster) LiveNodes() int {
	if c.state == nil {
		return len(c.avail)
	}
	live := 0
	for _, st := range c.state {
		if st == NodeUp {
			live++
		}
	}
	return live
}

// StateCounts returns how many nodes are up, draining and down.
func (c *Cluster) StateCounts() (up, draining, down int) {
	if c.state == nil {
		return len(c.avail), 0, 0
	}
	for _, st := range c.state {
		switch st {
		case NodeDraining:
			draining++
		case NodeDown:
			down++
		default:
			up++
		}
	}
	return up, draining, down
}

// EligibleInto appends the per-node placement eligibility (state == NodeUp)
// to dst[:0] and returns it — the hot-path companion of AvailInto.
func (c *Cluster) EligibleInto(dst []bool) []bool {
	dst = dst[:0]
	for id := range c.avail {
		dst = append(dst, c.state == nil || c.state[id] == NodeUp)
	}
	return dst
}

// AddNode grows the cluster by one node with the given cost coefficients,
// available from availFrom (clamped non-negative), and returns its id.
// Existing node ids, release times and accounting are untouched — the cost
// model is rebuilt with the new row appended, so partitioners reading
// per-node costs through PlanContext pick the node up on the next test.
func (c *Cluster) AddNode(nc dlt.NodeCost, availFrom float64) (int, error) {
	costs := append(c.costs.Costs(), nc)
	cm, err := dlt.NewCostModel(costs)
	if err != nil {
		return 0, err
	}
	if availFrom < 0 {
		availFrom = 0
	}
	c.costs = cm
	c.p = cm.Reference()
	id := len(c.avail)
	c.avail = append(c.avail, availFrom)
	if c.state != nil {
		c.state = append(c.state, NodeUp)
	}
	return id, nil
}

// ensureState materialises the lazily-allocated state slice (nil means
// every node is NodeUp, which keeps the fixed-fleet fast paths untouched).
func (c *Cluster) ensureState() {
	if c.state == nil {
		c.state = make([]NodeState, len(c.avail))
	}
}
