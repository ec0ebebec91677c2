package pool

import (
	"context"
	"errors"
	"slices"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

// newPool builds a homogeneous K-shard pool of n-node DLT-IIT clusters.
func newPool(t testing.TB, k, n int, place Placement) *Pool {
	t.Helper()
	shards := make([]ShardConfig, k)
	for i := range shards {
		cl, err := cluster.New(n, baseline)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}
	p, err := New(Config{Shards: shards, Placement: place})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("empty config: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Shards: []ShardConfig{{}}}); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("nil cluster shard: err = %v, want ErrBadConfig", err)
	}
}

func TestRoundRobinRoutesBySequence(t *testing.T) {
	p := newPool(t, 3, 8, RoundRobin{})
	defer p.Close()
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		d, err := p.Submit(ctx, rt.Task{ID: int64(i + 1), Sigma: 50, RelDeadline: 1e6})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d: %+v, %v", i, d, err)
		}
		if d.Shard != i%3 {
			t.Fatalf("submission %d placed on shard %d, want %d", i, d.Shard, i%3)
		}
	}
	st := p.Stats()
	if st.Arrivals != 9 || st.Accepts != 9 || st.Rejects != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, ss := range p.ShardStats() {
		if ss.Accepts != 3 {
			t.Fatalf("shard %d accepts = %d, want 3", i, ss.Accepts)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Commits != 9 || st.QueueLen != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestSpilloverRetriesInfeasibleShard forces the retry path
// deterministically: round robin offers the task to a 1-node shard that
// cannot meet the deadline, and spillover re-offers it to the 16-node
// sibling, which accepts. Pool-level counters must count the task once.
func TestSpilloverRetriesInfeasibleShard(t *testing.T) {
	small, err := cluster.New(1, baseline)
	if err != nil {
		t.Fatal(err)
	}
	big, err := cluster.New(16, baseline)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Shards: []ShardConfig{
			{Cluster: small, Policy: rt.EDF, Partitioner: rt.IITDLT{}},
			{Cluster: big, Policy: rt.EDF, Partitioner: rt.IITDLT{}},
		},
		Placement: Spillover{Inner: RoundRobin{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// E(100, 1) = 100·(Cms+Cps) = 10100 > 3000, but 16 nodes finish well
	// inside the deadline.
	d, err := p.Submit(context.Background(), rt.Task{ID: 1, Sigma: 100, RelDeadline: 3000})
	if err != nil || !d.Accepted {
		t.Fatalf("decision = %+v, %v", d, err)
	}
	if d.Shard != 1 {
		t.Fatalf("placed on shard %d, want the 16-node shard 1", d.Shard)
	}
	if p.Spillovers() != 1 {
		t.Fatalf("Spillovers = %d, want 1", p.Spillovers())
	}
	ss := p.ShardStats()
	if ss[0].Rejects != 1 || ss[1].Accepts != 1 {
		t.Fatalf("shard stats = %+v", ss)
	}
	if st := p.Stats(); st.Arrivals != 1 || st.Accepts != 1 || st.Rejects != 0 {
		t.Fatalf("pool stats double-counted the spillover: %+v", st)
	}
}

// feedStream submits a deterministic bursty task stream and returns the
// pool's final stats.
func feedStream(t *testing.T, p *Pool, tasks int) service.Stats {
	t.Helper()
	ctx := context.Background()
	now := 0.0
	rng := uint64(12345)
	next := func(mod uint64) float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64((rng >> 33) % mod)
	}
	for i := 0; i < tasks; i++ {
		now += next(300) // bursty: mean interarrival ≪ mean execution
		task := rt.Task{
			ID:          int64(i + 1),
			Arrival:     now,
			Sigma:       1 + next(400),
			RelDeadline: 1500 + next(5000),
		}
		if _, err := p.Submit(ctx, task); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	return p.Stats()
}

// TestSpilloverCutsRejectRatio drives the same overloaded stream through
// single-choice round robin and its spillover variant: retrying rejected
// tasks on the other shards must not lose capacity, and on this fixed
// stream it rescues a measurable number of tasks.
func TestSpilloverCutsRejectRatio(t *testing.T) {
	single := newPool(t, 4, 4, RoundRobin{})
	defer single.Close()
	spill := newPool(t, 4, 4, Spillover{Inner: RoundRobin{}})
	defer spill.Close()

	const tasks = 400
	sSingle := feedStream(t, single, tasks)
	sSpill := feedStream(t, spill, tasks)
	if sSingle.Arrivals != tasks || sSpill.Arrivals != tasks {
		t.Fatalf("arrivals %d / %d, want %d", sSingle.Arrivals, sSpill.Arrivals, tasks)
	}
	if sSpill.Rejects >= sSingle.Rejects {
		t.Fatalf("spillover did not cut rejects: %d (spillover) vs %d (round robin)",
			sSpill.Rejects, sSingle.Rejects)
	}
	if spill.Spillovers() == 0 {
		t.Fatalf("no spillover retries happened — stream not stressful enough")
	}
	if sSpill.Commits != sSpill.Accepts || sSpill.QueueLen != 0 {
		t.Fatalf("drain incomplete: %+v", sSpill)
	}
	// The pool's demand-reject count is its shards' — one per shard test the
	// bound decided, so a spilled task can count on several.
	sum := 0
	for _, st := range spill.ShardStats() {
		sum += st.DemandRejects
	}
	if sSpill.DemandRejects != sum || sum == 0 {
		t.Fatalf("pool counts %d demand rejects, its shards %d (want equal, and the overloaded stream to reach the bound)", sSpill.DemandRejects, sum)
	}
}

func TestDeadlinePastSkipsSpillover(t *testing.T) {
	clock := service.NewManualClock(1000)
	shards := make([]ShardConfig, 2)
	for i := range shards {
		cl, _ := cluster.New(4, baseline)
		shards[i] = ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}
	p, err := New(Config{Shards: shards, Placement: Spillover{}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d, err := p.Submit(context.Background(), rt.Task{ID: 1, Arrival: 10, Sigma: 10, RelDeadline: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(d.Reason, errs.ErrDeadlinePast) {
		t.Fatalf("reason = %v, want ErrDeadlinePast", d.Reason)
	}
	// Only one shard should have seen it (no pointless retries).
	saw := 0
	for _, ss := range p.ShardStats() {
		saw += ss.Arrivals
	}
	if saw != 1 {
		t.Fatalf("%d shard arrivals for a past-deadline task, want 1", saw)
	}
}

func TestMergedEventStreamIsShardTagged(t *testing.T) {
	p := newPool(t, 3, 8, RoundRobin{})
	sub := p.Subscribe(64)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := p.Submit(ctx, rt.Task{ID: int64(i + 1), Sigma: 50, RelDeadline: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	sub.Cancel()
	counts := map[int]int{}
	kinds := map[service.EventKind]int{}
	for ev := range sub.C() {
		counts[ev.Shard]++
		kinds[ev.Kind]++
	}
	if kinds[service.EventAccept] != 6 || kinds[service.EventCommit] != 6 {
		t.Fatalf("event kinds = %v", kinds)
	}
	for shard := 0; shard < 3; shard++ {
		if counts[shard] != 4 { // 2 accepts + 2 commits each
			t.Fatalf("shard %d events = %d, want 4 (%v)", shard, counts[shard], counts)
		}
	}
}

func TestClosedPool(t *testing.T) {
	p := newPool(t, 2, 4, nil)
	p.Close()
	if _, err := p.Submit(context.Background(), rt.Task{ID: 1, Sigma: 1, RelDeadline: 100}); !errors.Is(err, errs.ErrClusterBusy) {
		t.Fatalf("err = %v, want ErrClusterBusy", err)
	}
	p.Close() // idempotent
}

func TestHeterogeneousShardSizes(t *testing.T) {
	big, err := cluster.New(16, baseline)
	if err != nil {
		t.Fatal(err)
	}
	small, err := cluster.New(2, baseline)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Shards: []ShardConfig{
			{Cluster: big, Policy: rt.EDF, Partitioner: rt.IITDLT{}},
			{Cluster: small, Policy: rt.EDF, Partitioner: rt.IITDLT{}},
		},
		Placement: LeastLoaded{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Empty queues tie — least-loaded must prefer the larger shard.
	d, err := p.Submit(context.Background(), rt.Task{ID: 1, Sigma: 50, RelDeadline: 1e6})
	if err != nil || !d.Accepted || d.Shard != 0 {
		t.Fatalf("decision = %+v, %v; want shard 0", d, err)
	}
	if got := p.ShardCosts(); len(got) != 2 || got[0].N() != 16 || got[1].N() != 2 {
		t.Fatalf("ShardCosts() sizes = %d shards, want 16 and 2 nodes", len(got))
	}
}

func TestPoolSetAcceptingGate(t *testing.T) {
	p := newPool(t, 2, 8, RoundRobin{})
	defer p.Close()
	ctx := context.Background()
	if d, err := p.Submit(ctx, rt.Task{ID: 1, Sigma: 150, RelDeadline: 1e6}); err != nil || !d.Accepted {
		t.Fatalf("submit before gate: %+v, %v", d, err)
	}
	p.SetAccepting(false)
	if _, err := p.Submit(ctx, rt.Task{ID: 2, Sigma: 150, RelDeadline: 1e6}); !errors.Is(err, errs.ErrClusterBusy) {
		t.Fatalf("gated submit err = %v, want ErrClusterBusy", err)
	}
	p.SetAccepting(true)
	if d, err := p.Submit(ctx, rt.Task{ID: 3, Sigma: 150, RelDeadline: 1e6}); err != nil || !d.Accepted {
		t.Fatalf("submit after reopen: %+v, %v", d, err)
	}
	// Drain after gating commits everything accepted.
	p.SetAccepting(false)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Commits != st.Accepts || st.QueueLen != 0 {
		t.Fatalf("drain lost work: %+v", st)
	}
}

func TestPoolSubscribeStreamGap(t *testing.T) {
	p := newPool(t, 2, 8, RoundRobin{})
	defer p.Close()
	sub := p.Subscribe(1)
	defer sub.Cancel()
	ctx := context.Background()
	for i := 1; i <= 4; i++ {
		if _, err := p.Submit(ctx, rt.Task{ID: int64(i), Sigma: 150, RelDeadline: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Dropped() < 3 {
		t.Fatalf("Dropped() = %d, want >= 3", sub.Dropped())
	}
	if st := p.Stats(); st.EventsDropped != sub.Dropped() {
		t.Fatalf("aggregate EventsDropped %d != subscriber %d", st.EventsDropped, sub.Dropped())
	}
}

// TestOneShardSubmitAllocatesLikeItsShard: the pool layer allocates
// nothing per Submit — a one-shard pool allocates exactly what its bare
// shard does on the same stream, accepts and rejects alike.
func TestOneShardSubmitAllocatesLikeItsShard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the count holds only on production builds")
	}
	ctx := context.Background()
	allocs := func(clock *service.ManualClock, submit func(context.Context, rt.Task) (service.Decision, error)) float64 {
		var id int64
		return testing.AllocsPerRun(400, func() {
			id++
			clock.Advance(1300)
			deadline := 5200.0
			if id%3 == 0 {
				deadline = 150 // below E(σ, N): an infeasible reject
			}
			if _, err := submit(ctx, rt.Task{ID: id, Sigma: 150 + float64(id%8)*12.5, RelDeadline: deadline}); err != nil {
				t.Fatal(err)
			}
		})
	}
	shard := func() ShardConfig {
		cl, err := cluster.New(16, baseline)
		if err != nil {
			t.Fatal(err)
		}
		return ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}

	bareClock := service.NewManualClock(0)
	sc := shard()
	bare, err := service.New(service.Config{Cluster: sc.Cluster, Policy: sc.Policy, Partitioner: sc.Partitioner, Clock: bareClock})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	poolClock := service.NewManualClock(0)
	p, err := New(Config{Shards: []ShardConfig{shard()}, Clock: poolClock})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	want, got := allocs(bareClock, bare.Submit), allocs(poolClock, p.Submit)
	if st := p.Stats(); st.Accepts == 0 || st.Rejects == 0 {
		t.Fatalf("stream must mix accepts and rejects: %+v", st)
	}
	if got != want {
		t.Fatalf("one-shard pool Submit allocates %v per call, its bare shard %v", got, want)
	}
}

func TestSetNodeStateRejectsBadInput(t *testing.T) {
	p := newPool(t, 2, 4, RoundRobin{})
	defer p.Close()
	if _, err := p.SetNodeState(5, service.NodeDown); err != nil {
		t.Fatal(err)
	}
	before := p.NodeStates()
	for _, c := range []struct {
		node int
		st   service.NodeState
	}{{8, service.NodeDraining}, {-1, service.NodeDown}, {6, service.NodeState(7)}} {
		if _, err := p.SetNodeState(c.node, c.st); !errors.Is(err, errs.ErrBadConfig) {
			t.Fatalf("SetNodeState(%d, %d): err = %v, want ErrBadConfig", c.node, c.st, err)
		}
		if got := p.NodeStates(); !slices.Equal(got, before) {
			t.Fatalf("SetNodeState(%d, %d) moved the fleet: %v, was %v", c.node, c.st, got, before)
		}
	}
}
