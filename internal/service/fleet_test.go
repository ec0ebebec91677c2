package service

import (
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
)

// saturate fills all 16 nodes with a task that commits at once, then
// admits a second task that must wait for released capacity.
func saturate(t *testing.T, svc *Service) (waitingID int64) {
	t.Helper()
	ctx := context.Background()
	tight := baseline.ExecTime(400, 16) * 1.01
	if dec, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 400, RelDeadline: tight}); err != nil || !dec.Accepted {
		t.Fatalf("saturating submit: %+v, %v", dec, err)
	}
	wait := tight + baseline.ExecTime(400, 16)*1.01
	if dec, err := svc.Submit(ctx, rt.Task{ID: 2, Sigma: 400, RelDeadline: wait}); err != nil || !dec.Accepted {
		t.Fatalf("waiting submit: %+v, %v", dec, err)
	}
	if svc.QueueLen() != 1 {
		t.Fatalf("queue len = %d, want 1 waiting task", svc.QueueLen())
	}
	return 2
}

func TestDrainDisplacesWaitingTask(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.Clock = NewManualClock(0) })
	events, cancel := svc.Subscribe(64)
	defer cancel()
	waitingID := saturate(t, svc)

	// Drain nodes one by one. The waiting task's deadline cannot survive
	// the fleet shrinking to one node (ExecTime on 1 node is an order of
	// magnitude past it), so a drain along the way must displace it.
	displacedAt := -1
	for node := 0; node < 16; node++ {
		res, err := svc.SetNodeState(node, NodeDraining)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != NodeDraining || res.Node != node {
			t.Fatalf("result = %+v, want node %d draining", res, node)
		}
		if res.Readmitted != 0 {
			t.Fatalf("result = %+v: a standalone service cannot readmit", res)
		}
		if res.Displaced > 0 {
			displacedAt = node
			break
		}
		if svc.QueueLen() != 1 {
			t.Fatalf("queue len = %d with no displacement yet", svc.QueueLen())
		}
	}
	if displacedAt < 0 {
		t.Fatal("no drain displaced the waiting task")
	}
	if svc.QueueLen() != 0 {
		t.Fatalf("queue len = %d after displacement, want 0", svc.QueueLen())
	}

	st := svc.Stats()
	if st.Displaced != 1 || st.NodesDraining != displacedAt+1 || st.NodesUp != 15-displacedAt {
		t.Fatalf("stats = %+v after draining %d nodes", st, displacedAt+1)
	}
	// The committed saturating task must be untouched.
	if st.Commits != 1 || st.LateCommits != 0 {
		t.Fatalf("stats = %+v, want the committed plan intact", st)
	}

	cancel()
	var disp *Event
	for ev := range events {
		if ev.Kind == EventDisplace {
			ev := ev
			disp = &ev
		}
	}
	if disp == nil {
		t.Fatal("no EventDisplace on the stream")
	}
	if disp.Task.ID != waitingID || disp.Reason != errs.ReasonNodeUnavailable {
		t.Fatalf("displace event = %+v, want task %d / node-unavailable", disp, waitingID)
	}
}

func TestRestoreDisplacesNothing(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.Clock = NewManualClock(0) })
	saturate(t, svc)
	if res, err := svc.SetNodeState(3, NodeUp); err != nil || res.Displaced != 0 {
		t.Fatalf("restore of an up node: %+v, %v", res, err)
	}
	if svc.QueueLen() != 1 {
		t.Fatalf("queue len = %d, restore must not displace", svc.QueueLen())
	}
}

func TestDownNodeStateAccounting(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.Clock = NewManualClock(0) })
	if _, err := svc.SetNodeState(0, NodeDown); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SetNodeState(1, NodeDraining); err != nil {
		t.Fatal(err)
	}
	states := svc.NodeStates()
	if states[0] != NodeDown || states[1] != NodeDraining || states[2] != NodeUp {
		t.Fatalf("states = %v", states[:3])
	}
	if svc.LiveNodes() != 14 {
		t.Fatalf("live = %d, want 14", svc.LiveNodes())
	}
	st := svc.Stats()
	if st.NodesUp != 14 || st.NodesDraining != 1 || st.NodesDown != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := svc.SetNodeState(0, NodeUp); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SetNodeState(1, NodeUp); err != nil {
		t.Fatal(err)
	}
	if svc.LiveNodes() != 16 {
		t.Fatalf("live = %d after restore, want 16", svc.LiveNodes())
	}
}

func TestSetNodeStateBadNode(t *testing.T) {
	svc := newTestService(t)
	if _, err := svc.SetNodeState(1, NodeDraining); err != nil {
		t.Fatal(err)
	}
	before := svc.NodeStates()
	for _, c := range []struct {
		node int
		st   NodeState
	}{{99, NodeDraining}, {-1, NodeDown}, {3, NodeState(7)}} {
		if _, err := svc.SetNodeState(c.node, c.st); !errors.Is(err, errs.ErrBadConfig) {
			t.Fatalf("SetNodeState(%d, %d): err = %v, want ErrBadConfig", c.node, c.st, err)
		}
		if got := svc.NodeStates(); !slices.Equal(got, before) {
			t.Fatalf("SetNodeState(%d, %d) moved the fleet: %v, was %v", c.node, c.st, got, before)
		}
	}
}

// TestFailRestoreBitIdentical is the churn-transparency property: a fail →
// restore cycle with nothing admitted in between leaves the scheduler
// bit-identical to one that never failed — same release times, and the
// same decisions for every subsequent arrival.
func TestFailRestoreBitIdentical(t *testing.T) {
	mk := func() *Service {
		return newTestService(t, func(c *Config) { c.Clock = NewManualClock(0) })
	}
	churned, pristine := mk(), mk()
	ctx := context.Background()

	// Identical prefix on both services: one task that commits at once,
	// leaving the waiting queue empty (the property requires an empty
	// interim queue — a waiting plan replanned onto the shrunken fleet
	// keeps its new node set until the next whole-queue test).
	prefix := rt.Task{ID: 1, Sigma: 400, RelDeadline: baseline.ExecTime(400, 16) * 1.2}
	for _, svc := range []*Service{churned, pristine} {
		if dec, err := svc.Submit(ctx, prefix); err != nil || !dec.Accepted {
			t.Fatalf("prefix submit: %+v, %v", dec, err)
		}
		if err := svc.Pump(); err != nil {
			t.Fatal(err)
		}
		if svc.QueueLen() != 0 {
			t.Fatalf("queue len = %d, the prefix task must commit at once", svc.QueueLen())
		}
	}

	// Fail and restore with an empty interim: no admissions in between.
	if _, err := churned.SetNodeState(5, NodeDown); err != nil {
		t.Fatal(err)
	}
	if _, err := churned.SetNodeState(5, NodeUp); err != nil {
		t.Fatal(err)
	}

	a1, a2 := churned.Cluster().AvailInto(nil), pristine.Cluster().AvailInto(nil)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("node %d release time %v != %v after fail-restore", i, a1[i], a2[i])
		}
	}

	// Every subsequent arrival must get the bit-identical plan.
	for id := int64(10); id < 30; id++ {
		task := rt.Task{ID: id, Sigma: 80 + float64(id), RelDeadline: 5000 + 300*float64(id)}
		d1, err1 := churned.Submit(ctx, task)
		d2, err2 := pristine.Submit(ctx, task)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if d1.Accepted != d2.Accepted || d1.Est != d2.Est || len(d1.Nodes) != len(d2.Nodes) {
			t.Fatalf("task %d diverged: %+v vs %+v", id, d1, d2)
		}
		for i := range d1.Nodes {
			if d1.Nodes[i] != d2.Nodes[i] || d1.Starts[i] != d2.Starts[i] || d1.Alphas[i] != d2.Alphas[i] {
				t.Fatalf("task %d chunk %d diverged", id, i)
			}
		}
	}
	if s1, s2 := churned.Stats(), pristine.Stats(); s1.Accepts != s2.Accepts || s1.Commits != s2.Commits {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
}

// TestDrainedNodeExcludedFromNewPlans: while a node drains, fresh
// admissions never place work on it; after restore they may again.
func TestDrainedNodeExcludedFromNewPlans(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.Clock = NewManualClock(0) })
	ctx := context.Background()
	if _, err := svc.SetNodeState(7, NodeDraining); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 8; id++ {
		dec, err := svc.Submit(ctx, rt.Task{ID: id, Sigma: 300, RelDeadline: 20000})
		if err != nil || !dec.Accepted {
			t.Fatalf("submit %d: %+v, %v", id, dec, err)
		}
		for _, n := range dec.Nodes {
			if n == 7 {
				t.Fatalf("task %d placed on draining node 7: %+v", id, dec.Nodes)
			}
		}
	}
	if _, err := svc.SetNodeState(7, NodeUp); err != nil {
		t.Fatal(err)
	}
	// A fleet-wide task must be able to use node 7 again.
	dec, err := svc.Submit(ctx, rt.Task{ID: 100, Sigma: 4000, RelDeadline: 1e6})
	if err != nil || !dec.Accepted {
		t.Fatalf("post-restore submit: %+v, %v", dec, err)
	}
}

func TestAddNodeGrowsFleet(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.Clock = NewManualClock(0) })
	id, err := svc.AddNode(dlt.NodeCost{Cms: baseline.Cms, Cps: baseline.Cps})
	if err != nil {
		t.Fatal(err)
	}
	if id != 16 {
		t.Fatalf("new node id = %d, want 16", id)
	}
	if svc.Nodes() != 17 || svc.LiveNodes() != 17 {
		t.Fatalf("nodes = %d live = %d, want 17/17", svc.Nodes(), svc.LiveNodes())
	}
	if got := len(svc.NodeStates()); got != 17 {
		t.Fatalf("NodeStates len = %d, want 17", got)
	}
}

// TestAddNodeStressConcurrentSubmits grows the fleet while submitters
// overlap: AddNode regrows the cluster arrays every view resync copies, so
// under -race this pins that submits and fleet growth both stay behind the
// shard's one lock. A reader polls Stats and scrapes /metrics throughout.
// After a drain every accept has committed.
func TestAddNodeStressConcurrentSubmits(t *testing.T) {
	const (
		submitters = 6
		each       = 60
		added      = 24
	)
	reg := metrics.NewRegistry()
	svc := newTestService(t, func(c *Config) { c.Metrics = NewMetrics(reg) })

	var (
		subs, side sync.WaitGroup
		done       = make(chan struct{})
		id         atomic.Int64
		accepted   atomic.Int64
		rejected   atomic.Int64
	)
	ctx := context.Background()
	task := func() rt.Task {
		n := id.Add(1)
		return rt.Task{ID: n, Sigma: 50 + float64(n%300), RelDeadline: 2000 + float64((n*91)%5000)}
	}
	for w := 0; w < submitters; w++ {
		subs.Add(1)
		go func(w int) {
			defer subs.Done()
			for i := 0; i < each; i++ {
				batch := []rt.Task{task()}
				if i%2 == 1 {
					batch = append(batch, task())
				}
				decs, err := svc.SubmitBatch(ctx, batch)
				if err != nil {
					t.Errorf("submitter %d: %v", w, err)
					return
				}
				for _, d := range decs {
					if d.Accepted {
						accepted.Add(1)
					} else {
						rejected.Add(1)
					}
				}
			}
		}(w)
	}
	side.Add(2)
	go func() {
		defer side.Done()
		for i := 0; i < added; i++ {
			if _, err := svc.AddNode(dlt.NodeCost{Cms: baseline.Cms, Cps: baseline.Cps}); err != nil {
				t.Errorf("AddNode: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	go func() {
		defer side.Done()
		var nodes, accepts int
		for {
			select {
			case <-done:
				return
			default:
			}
			st, n := svc.Stats(), svc.Nodes()
			if n < nodes || st.Accepts < accepts {
				t.Errorf("went backwards: nodes %d -> %d, accepts %d -> %d", nodes, n, accepts, st.Accepts)
				return
			}
			nodes, accepts = n, st.Accepts
			if _, err := reg.WriteTo(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	subs.Wait()
	close(done)
	side.Wait()
	if t.Failed() {
		return
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if got := svc.Nodes(); got != 16+added {
		t.Fatalf("fleet has %d nodes, want %d", got, 16+added)
	}
	if int64(st.Accepts) != accepted.Load() || int64(st.Rejects) != rejected.Load() {
		t.Fatalf("decisions %d/%d disagree with stats %+v", accepted.Load(), rejected.Load(), st)
	}
	if st.Accepts != st.Commits+st.Displaced-st.Readmitted || st.QueueLen != 0 {
		t.Fatalf("conservation broken after drain: %+v", st)
	}
	if ex := svc.Exec(); ex.MaxLateness > 0 {
		t.Fatalf("hard real-time guarantee violated: max lateness %v", ex.MaxLateness)
	}
}
