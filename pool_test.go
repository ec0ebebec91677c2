package rtdls_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"rtdls"
)

// feedDeterministic submits a fixed bursty stream with strictly
// increasing arrivals and returns every decision.
func feedDeterministic(t *testing.T, svc *rtdls.Service, tasks int) []rtdls.Decision {
	t.Helper()
	ctx := context.Background()
	out := make([]rtdls.Decision, 0, tasks)
	for i := 1; i <= tasks; i++ {
		d, err := svc.Submit(ctx, rtdls.Task{
			ID:          int64(i),
			Arrival:     float64(i) * 400,
			Sigma:       1 + float64((i*37)%350),
			RelDeadline: 900 + float64((i*91)%6000),
		})
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		out = append(out, d)
	}
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWithShardsOneIsBitIdentical: for every algorithm (and a
// heterogeneous cost draw), an explicit WithShards(1) service produces
// exactly the decisions, plans and statistics of the default service —
// the default is the one-shard pool, so asking for one shard changes
// nothing.
func TestWithShardsOneIsBitIdentical(t *testing.T) {
	variants := []struct {
		label string
		opts  []rtdls.Option
	}{
		{"homogeneous", nil},
		{"hetero-spread", []rtdls.Option{rtdls.WithCostSpread(2, 4, 7)}},
		{"fifo", []rtdls.Option{rtdls.WithPolicy(rtdls.FIFO)}},
	}
	for _, alg := range rtdls.Algorithms() {
		for _, v := range variants {
			label := alg + "/" + v.label
			base := append([]rtdls.Option{rtdls.WithNodes(12), rtdls.WithAlgorithm(alg)}, v.opts...)
			plain, err := rtdls.New(base...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			pooled, err := rtdls.New(append(append([]rtdls.Option(nil), base...), rtdls.WithShards(1))...)
			if err != nil {
				t.Fatalf("%s: pooled: %v", label, err)
			}
			if plain.Shards() != 1 || pooled.Shards() != 1 {
				t.Fatalf("%s: shard counts %d / %d", label, plain.Shards(), pooled.Shards())
			}

			const tasks = 150
			dp := feedDeterministic(t, plain, tasks)
			dq := feedDeterministic(t, pooled, tasks)
			for i := range dp {
				a, b := dp[i], dq[i]
				if a.Accepted != b.Accepted || a.TaskID != b.TaskID || a.Shard != b.Shard ||
					math.Float64bits(a.At) != math.Float64bits(b.At) {
					t.Fatalf("%s task %d: decisions diverge: %+v vs %+v", label, a.TaskID, a, b)
				}
				if a.Reason != b.Reason {
					t.Fatalf("%s task %d: reasons diverge: %q vs %q", label, a.TaskID, a.Reason, b.Reason)
				}
				if !a.Accepted {
					continue
				}
				if math.Float64bits(a.Est) != math.Float64bits(b.Est) || a.Rounds != b.Rounds {
					t.Fatalf("%s task %d: plans diverge: est %v/%v", label, a.TaskID, a.Est, b.Est)
				}
				if len(a.Nodes) != len(b.Nodes) {
					t.Fatalf("%s task %d: node counts diverge", label, a.TaskID)
				}
				for j := range a.Nodes {
					if a.Nodes[j] != b.Nodes[j] {
						t.Fatalf("%s task %d: node sets diverge", label, a.TaskID)
					}
				}
				if !sameFloats(a.Starts, b.Starts) || !sameFloats(a.Alphas, b.Alphas) {
					t.Fatalf("%s task %d: starts/alphas diverge", label, a.TaskID)
				}
			}

			if err := plain.Drain(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := pooled.Drain(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sa, sb := plain.Stats(), pooled.Stats()
			if sa.Arrivals != sb.Arrivals || sa.Accepts != sb.Accepts || sa.Rejects != sb.Rejects ||
				sa.Commits != sb.Commits || sa.QueueLen != sb.QueueLen || sa.MaxQueueLen != sb.MaxQueueLen ||
				math.Float64bits(sa.BusyTime) != math.Float64bits(sb.BusyTime) ||
				math.Float64bits(sa.ReservedIdle) != math.Float64bits(sb.ReservedIdle) ||
				math.Float64bits(sa.LastRelease) != math.Float64bits(sb.LastRelease) ||
				math.Float64bits(sa.Utilization) != math.Float64bits(sb.Utilization) {
				t.Fatalf("%s: stats diverge:\n single: %+v\n pooled: %+v", label, sa, sb)
			}
			plain.Close()
			pooled.Close()
		}
	}
}

// TestServiceShardedFleet exercises the public multi-shard surface: a
// fleet of differently sized shards behind spillover placement, shard-
// tagged decisions and events, and aggregated versus per-shard stats.
func TestServiceShardedFleet(t *testing.T) {
	svc, err := rtdls.New(
		rtdls.WithShardNodes(16, 4),
		rtdls.WithPlacement(rtdls.Spillover{Inner: rtdls.RoundRobin{}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Shards() != 2 {
		t.Fatalf("Shards() = %d", svc.Shards())
	}
	if cms := svc.ShardCosts(); len(cms) != 2 || cms[0].N() != 16 || cms[1].N() != 4 {
		t.Fatalf("ShardCosts() sizes wrong")
	}

	sub := svc.Subscribe(256)
	ctx := context.Background()
	// Task 2 (round robin → the 4-node shard) is infeasible there and must
	// spill over to the 16-node shard.
	for i := 1; i <= 2; i++ {
		d, err := svc.Submit(ctx, rtdls.Task{ID: int64(i), Sigma: 300, RelDeadline: 6000})
		if err != nil || !d.Accepted {
			t.Fatalf("task %d: %+v, %v", i, d, err)
		}
		if d.Shard != 0 {
			t.Fatalf("task %d placed on shard %d, want 0", i, d.Shard)
		}
	}
	if svc.Spillovers() != 1 {
		t.Fatalf("Spillovers() = %d, want 1", svc.Spillovers())
	}
	st := svc.Stats()
	if st.Arrivals != 2 || st.Accepts != 2 || st.Rejects != 0 {
		t.Fatalf("aggregate stats %+v", st)
	}
	ss := svc.ShardStats()
	if len(ss) != 2 || ss[0].Accepts != 2 || ss[1].Rejects != 1 {
		t.Fatalf("shard stats %+v", ss)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	sub.Cancel()
	sawShard1 := false
	for ev := range sub.C() {
		if ev.Shard == 1 {
			sawShard1 = true
			if ev.Kind != rtdls.EventReject {
				t.Fatalf("shard 1 should only have rejected: %+v", ev)
			}
		}
	}
	if !sawShard1 {
		t.Fatalf("merged stream missed shard 1's reject event")
	}
}

// TestSimulateSharded runs the one-call simulation over a sharded fleet.
func TestSimulateSharded(t *testing.T) {
	res, err := rtdls.Simulate(
		rtdls.Workload{SystemLoad: 0.8, AvgSigma: 200, DCRatio: 2, Horizon: 1e5, Seed: 3},
		rtdls.WithNodes(8),
		rtdls.WithShards(4),
		rtdls.WithPlacement(rtdls.LeastLoaded{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.Placement != "least-loaded" || len(res.ShardRejectRatios) != 4 {
		t.Fatalf("result = %+v", res)
	}
	if res.Arrivals == 0 || res.Accepted+res.Rejected != res.Arrivals {
		t.Fatalf("accounting: %+v", res)
	}
}

// TestEveryNodeDownIsACountedReject: with no live node anywhere, a
// submission is a clean infeasible decision — counted, with its
// EventReject — for one shard and for several alike, through Submit and
// SubmitBatch.
func TestEveryNodeDownIsACountedReject(t *testing.T) {
	for _, k := range []int{1, 3} {
		svc, err := rtdls.New(rtdls.WithNodes(2), rtdls.WithShards(k))
		if err != nil {
			t.Fatal(err)
		}
		sub := svc.Subscribe(16)
		for node := range svc.NodeStates() {
			if _, err := svc.SetNodeState(node, rtdls.NodeDown); err != nil {
				t.Fatalf("K=%d: fail node %d: %v", k, node, err)
			}
		}
		ctx := context.Background()
		task := rtdls.Task{ID: 1, Sigma: 200, RelDeadline: 2800}
		d, err := svc.Submit(ctx, task)
		if err != nil || d.Accepted || d.Reason != rtdls.ReasonInfeasible {
			t.Fatalf("K=%d: Submit = %+v, %v; want an infeasible reject", k, d, err)
		}
		task.ID = 2
		ds, err := svc.SubmitBatch(ctx, []rtdls.Task{task})
		if err != nil || len(ds) != 1 || ds[0].Accepted || ds[0].Reason != rtdls.ReasonInfeasible {
			t.Fatalf("K=%d: SubmitBatch = %+v, %v; want an infeasible reject", k, ds, err)
		}
		if st := svc.Stats(); st.Arrivals != 2 || st.Rejects != 2 || st.Accepts != 0 {
			t.Fatalf("K=%d: stats %+v, want 2 arrivals, 2 rejects", k, st)
		}
		svc.Close()
		sub.Cancel()
		rejects := 0
		for ev := range sub.C() {
			if ev.Kind == rtdls.EventReject {
				rejects++
			}
		}
		if rejects != 2 {
			t.Fatalf("K=%d: %d reject events, want 2", k, rejects)
		}
	}
}

func TestSetNodeStateRejectsBadInput(t *testing.T) {
	svc, err := rtdls.New(rtdls.WithNodes(4), rtdls.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.SetNodeState(2, rtdls.NodeDraining); err != nil {
		t.Fatal(err)
	}
	before := svc.NodeStates()
	for _, c := range []struct {
		node int
		st   rtdls.NodeState
	}{{8, rtdls.NodeDraining}, {-1, rtdls.NodeDown}, {1, rtdls.NodeState(7)}} {
		if _, err := svc.SetNodeState(c.node, c.st); !errors.Is(err, rtdls.ErrBadConfig) {
			t.Fatalf("SetNodeState(%d, %d): err = %v, want ErrBadConfig", c.node, c.st, err)
		}
		if got := svc.NodeStates(); !slices.Equal(got, before) {
			t.Fatalf("SetNodeState(%d, %d) moved the fleet: %v, was %v", c.node, c.st, got, before)
		}
	}
}

// TestShardCostsFollowAddNode: ShardCosts reads each shard's live cost
// model, so a node added after New shows in it, and reading it beside a
// concurrent AddNode is race-free.
func TestShardCostsFollowAddNode(t *testing.T) {
	svc, err := rtdls.New(rtdls.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.AddNode(rtdls.NodeCost{Cms: 1, Cps: 100}); err != nil {
		t.Fatal(err)
	}
	if got, want := svc.ShardCosts()[0].N(), len(svc.NodeStates()); got != want || got != 5 {
		t.Fatalf("ShardCosts()[0].N() = %d, len(NodeStates()) = %d, want both 5", got, want)
	}

	done := make(chan error)
	go func() {
		for range 8 {
			if _, err := svc.AddNode(rtdls.NodeCost{Cms: 2, Cps: 150}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for range 64 {
		if n := svc.ShardCosts()[0].N(); n < 5 || n > 13 {
			t.Fatalf("ShardCosts()[0].N() = %d during AddNode, want 5..13", n)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := svc.ShardCosts()[0].N(), len(svc.NodeStates()); got != want || got != 13 {
		t.Fatalf("ShardCosts()[0].N() = %d, len(NodeStates()) = %d, want both 13", got, want)
	}
}
