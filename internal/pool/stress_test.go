package pool_test

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/metrics"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
	"rtdls/internal/verify"
)

// TestPoolConcurrentSubmitRace is the pool's -race acceptance stress
// test: many goroutines submit through a spillover placement (so retries
// cross shard locks), decision totals must reconcile with pool and shard
// stats, and an independent verifier per shard re-checks every commitment
// (no node overlap, Theorem-4 safety, no deadline misses).
func TestPoolConcurrentSubmitRace(t *testing.T) {
	const (
		k       = 4
		n       = 8
		workers = 10
		each    = 120
	)
	params := dlt.Params{Cms: 1, Cps: 100}
	checkers := make([]*verify.Checker, k)
	shards := make([]pool.ShardConfig, k)
	for i := range shards {
		cl, err := cluster.New(n, params)
		if err != nil {
			t.Fatal(err)
		}
		checkers[i] = verify.NewChecker(params, n)
		shards[i] = pool.ShardConfig{
			Cluster:     cl,
			Policy:      rt.EDF,
			Partitioner: rt.IITDLT{},
			Observer:    checkers[i],
		}
	}
	p, err := pool.New(pool.Config{Shards: shards, Placement: pool.Spillover{Inner: pool.PowerOfTwoChoices{Seed: 7}}})
	if err != nil {
		t.Fatal(err)
	}

	sub := p.Subscribe(1 << 15)
	streamed := make(chan map[service.EventKind]int, 1)
	go func() {
		counts := make(map[service.EventKind]int)
		for ev := range sub.C() {
			if ev.Shard < 0 || ev.Shard >= k {
				t.Errorf("event with shard %d", ev.Shard)
			}
			counts[ev.Kind]++
		}
		streamed <- counts
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		rejected int
	)
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			la, lr := 0, 0
			for i := 0; i < each; i++ {
				id := int64(w*each + i + 1)
				dec, err := p.Submit(ctx, rt.Task{
					ID:          id,
					Sigma:       20 + float64((id*37)%400),
					RelDeadline: 1500 + float64((id*91)%8000),
				})
				if err != nil {
					t.Errorf("worker %d task %d: %v", w, id, err)
					return
				}
				if dec.Accepted {
					if dec.Shard < 0 || dec.Shard >= k {
						t.Errorf("task %d placed on shard %d", id, dec.Shard)
					}
					la++
				} else {
					lr++
				}
			}
			mu.Lock()
			accepted += la
			rejected += lr
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	p.Close()
	sub.Cancel()
	counts := <-streamed

	if st.Arrivals != workers*each {
		t.Fatalf("arrivals = %d, want %d", st.Arrivals, workers*each)
	}
	if accepted+rejected != st.Arrivals || st.Accepts != accepted || st.Rejects != rejected {
		t.Fatalf("decision totals %d+%d disagree with stats %+v", accepted, rejected, st)
	}
	if st.Commits != st.Accepts || st.QueueLen != 0 {
		t.Fatalf("drain incomplete: %+v", st)
	}
	shardAccepts := 0
	for i, ss := range p.ShardStats() {
		shardAccepts += ss.Accepts
		if ss.Commits != ss.Accepts {
			t.Fatalf("shard %d: %d commits != %d accepts", i, ss.Commits, ss.Accepts)
		}
	}
	if shardAccepts != st.Accepts {
		t.Fatalf("shard accepts %d != pool accepts %d", shardAccepts, st.Accepts)
	}
	if st.EventsDropped == 0 {
		// Spillover retries add shard-level reject events, so the stream
		// carries at least one event per pool decision plus one per commit.
		total := counts[service.EventAccept] + counts[service.EventReject] + counts[service.EventCommit]
		if want := st.Accepts + st.Rejects + st.Commits; total < want {
			t.Fatalf("stream saw %d events, want at least %d", total, want)
		}
		if counts[service.EventAccept] != st.Accepts || counts[service.EventCommit] != st.Commits {
			t.Fatalf("stream counts %v disagree with stats %+v", counts, st)
		}
	}
	for i, chk := range checkers {
		if !chk.OK() {
			t.Fatalf("shard %d verifier found violations:\n%s", i, chk.Report())
		}
	}
	if st.Utilization < 0 || st.Utilization > 1 {
		t.Fatalf("utilization = %v", st.Utilization)
	}
}

// TestPoolConcurrentFleetOpsRace runs fleet churn concurrently with the
// submit storm: goroutines drain, fail and restore nodes while workers
// submit through spillover placement. At quiescence every shard must
// reconcile accepts == commits + displacements, the pool-level identity
// must account for readmissions, and the fleet gauges must partition the
// full node count.
func TestPoolConcurrentFleetOpsRace(t *testing.T) {
	const (
		k       = 4
		n       = 8
		workers = 8
		each    = 100
	)
	params := dlt.Params{Cms: 1, Cps: 100}
	shards := make([]pool.ShardConfig, k)
	for i := range shards {
		cl, err := cluster.New(n, params)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}
	reg := metrics.NewRegistry()
	p, err := pool.New(pool.Config{
		Shards:    shards,
		Placement: pool.Spillover{Inner: pool.LeastLoaded{}},
		Metrics:   service.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := int64(w*each + i + 1)
				if _, err := p.Submit(ctx, rt.Task{
					ID:          id,
					Sigma:       20 + float64((id*37)%400),
					RelDeadline: 4000 + float64((id*91)%20000),
				}); err != nil {
					t.Errorf("worker %d task %d: %v", w, id, err)
					return
				}
			}
		}(w)
	}
	// Churn goroutines: each cycles a disjoint set of nodes through
	// fail → restore and drain → restore while the submitters run.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				node := g*2*n/4 + rep%(2*n/4) + (g%2)*k*n/2
				node %= k * n
				if rep%2 == 0 {
					if _, err := p.SetNodeState(node, service.NodeDown); err != nil {
						t.Errorf("fail %d: %v", node, err)
					}
				} else {
					if _, err := p.SetNodeState(node, service.NodeDraining); err != nil {
						t.Errorf("drain %d: %v", node, err)
					}
				}
				if _, err := p.SetNodeState(node, service.NodeUp); err != nil {
					t.Errorf("restore %d: %v", node, err)
				}
			}
		}(g)
	}
	wg.Wait()
	// Leave every node up so the drain below has full capacity.
	for node := 0; node < k*n; node++ {
		if _, err := p.SetNodeState(node, service.NodeUp); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()

	if st.Arrivals != workers*each {
		t.Fatalf("arrivals = %d, want %d", st.Arrivals, workers*each)
	}
	if st.QueueLen != 0 {
		t.Fatalf("drain incomplete: %+v", st)
	}
	if st.Accepts != st.Commits+st.Displaced-st.Readmitted {
		t.Fatalf("pool identity broken: accepts %d != commits %d + displaced %d - readmitted %d",
			st.Accepts, st.Commits, st.Displaced, st.Readmitted)
	}
	if st.LateCommits != 0 {
		t.Fatalf("%d late commits under churn", st.LateCommits)
	}
	for i, ss := range p.ShardStats() {
		if ss.Accepts != ss.Commits+ss.Displaced {
			t.Fatalf("shard %d identity broken: accepts %d != commits %d + displaced %d",
				i, ss.Accepts, ss.Commits, ss.Displaced)
		}
	}
	if st.NodesUp != k*n || st.NodesDraining != 0 || st.NodesDown != 0 {
		t.Fatalf("fleet not fully restored: %+v", st)
	}

	// The rendered gauges must agree: per shard, the fleet_nodes states
	// partition n; pool-wide the displacement counters sum to the stats.
	var buf strings.Builder
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var gaugeSum, dispSum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "rtdls_fleet_nodes{") {
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				t.Fatalf("bad gauge line %q", line)
			}
			gaugeSum += v
		}
		if strings.HasPrefix(line, "rtdls_displacements_total{") {
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				t.Fatalf("bad counter line %q", line)
			}
			dispSum += v
		}
	}
	if int(gaugeSum) != k*n {
		t.Fatalf("fleet gauges sum to %v, want %d", gaugeSum, k*n)
	}
	if int(dispSum) != st.Displaced {
		t.Fatalf("displacement counters sum to %v, stats say %d", dispSum, st.Displaced)
	}
}

// TestConcurrentDecisionArenas: each shard cuts the copies of every
// Decision it returns from chunks the decisions share, across goroutines.
// Four goroutines submit to a 2-shard pool; then each overwrites the
// slices of its own decisions in place, and then appends to them, while
// the others do the same. Every decision must end with exactly what its
// owner wrote, in the chunk and in the appended copy: no cut reaches past
// its own end, and none is handed out twice. Under -race, a write into
// another decision's part of a chunk is also reported as a race.
func TestConcurrentDecisionArenas(t *testing.T) {
	const workers, each = 4, 150
	params := dlt.Params{Cms: 1, Cps: 100}
	shards := make([]pool.ShardConfig, 2)
	for i := range shards {
		cl, err := cluster.New(8, params)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}
	clock := service.NewManualClock(0)
	p, err := pool.New(pool.Config{Shards: shards, Placement: pool.RoundRobin{}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	parallel := func(f func(w int)) {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(w)
			}()
		}
		wg.Wait()
	}
	// decs holds each goroutine's accepted decisions as returned, their
	// slices in the shards' chunks; grown the same after the appends.
	decs, grown := make([][]service.Decision, workers), make([][]service.Decision, workers)
	parallel(func(w int) {
		for i := range each {
			clock.Advance(1000)
			task := rt.Task{ID: int64(w*each + i + 1), Sigma: 50 + float64(i%5)*10, RelDeadline: 4000}
			d, err := p.Submit(context.Background(), task)
			if err != nil {
				t.Error(err)
				return
			}
			if d.Accepted {
				decs[w] = append(decs[w], d)
			}
		}
	})
	parallel(func(w int) {
		for _, d := range decs[w] {
			for j := range d.Nodes {
				d.Nodes[j], d.Starts[j], d.Alphas[j] = -int(d.TaskID), -float64(d.TaskID), float64(d.TaskID)
			}
		}
	})
	parallel(func(w int) {
		for _, d := range decs[w] {
			d.Nodes, d.Starts, d.Alphas = append(d.Nodes, 0), append(d.Starts, 0), append(d.Alphas, 0)
			grown[w] = append(grown[w], d)
		}
	})

	accepted := 0
	for w := range decs {
		for i, d := range decs[w] {
			id, mark := d.TaskID, float64(d.TaskID)
			for _, d := range []service.Decision{d, grown[w][i]} {
				for j := range decs[w][i].Nodes {
					if d.Nodes[j] != -int(id) || d.Starts[j] != -mark || d.Alphas[j] != mark {
						t.Fatalf("goroutine %d, task %d: node %d holds (%d, %v, %v), want what its owner wrote (%d, %v, %v)",
							w, id, j, d.Nodes[j], d.Starts[j], d.Alphas[j], -id, -mark, mark)
					}
				}
			}
			accepted++
		}
	}
	t.Logf("%d of %d tasks accepted", accepted, workers*each)
	if accepted < workers*each/2 {
		t.Fatalf("only %d of %d tasks accepted: the arenas were hardly exercised", accepted, workers*each)
	}
}

// TestConcurrentFleetReads: a 2-shard pool grows and churns its fleet
// (AddNode, SetNodeState) and takes submissions while readers call every
// read accessor. No read hands out shard state, so -race must stay quiet;
// the node count each reader sees only grows, and at quiescence the cost
// models, the node states and the fleet gauges agree on it.
func TestConcurrentFleetReads(t *testing.T) {
	const (
		k, n    = 2, 4
		adds    = 12
		readers = 2
	)
	shards := make([]pool.ShardConfig, k)
	for i := range shards {
		cl, err := cluster.New(n, dlt.Params{Cms: 1, Cps: 100})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}
	p, err := pool.New(pool.Config{Shards: shards, Placement: pool.Spillover{Inner: pool.RoundRobin{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	done := make(chan struct{})
	var writers, reads sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := range adds {
			id, err := p.AddNode(dlt.NodeCost{Cms: 1, Cps: 80 + float64(i)})
			if err != nil {
				t.Errorf("AddNode %d: %v", i, err)
				return
			}
			for _, st := range []service.NodeState{service.NodeDown, service.NodeUp, service.NodeDraining, service.NodeUp} {
				if _, err := p.SetNodeState((id+i)%(k*n+i+1), st); err != nil {
					t.Errorf("SetNodeState: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		for id := int64(1); id <= 200; id++ {
			if _, err := p.Submit(context.Background(), rt.Task{ID: id, Sigma: 20 + float64(id%50), RelDeadline: 3000}); err != nil {
				t.Errorf("submit %d: %v", id, err)
				return
			}
		}
	}()
	for range readers {
		reads.Add(1)
		go func() {
			defer reads.Done()
			seen := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				nodes := 0
				for _, cm := range p.ShardCosts() {
					nodes += cm.N()
				}
				if nodes < seen || nodes > k*n+adds {
					t.Errorf("ShardCosts count %d nodes after %d", nodes, seen)
					return
				}
				seen = nodes
				if got := len(p.NodeStates()); got < seen || got > k*n+adds {
					t.Errorf("NodeStates has %d nodes after ShardCosts counted %d", got, seen)
					return
				}
				p.Stats()
				if len(p.ShardStats()) != k {
					t.Error("ShardStats lost a shard")
					return
				}
				p.NextCommit()
				p.Exec()
				if p.Spillovers() < 0 || !p.Accepting() {
					t.Error("Spillovers negative or pool not accepting")
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	reads.Wait()

	nodes := 0
	for _, cm := range p.ShardCosts() {
		nodes += cm.N()
	}
	st := p.Stats()
	if got := len(p.NodeStates()); nodes != k*n+adds || got != nodes || st.NodesUp != nodes {
		t.Fatalf("at quiescence: ShardCosts count %d nodes, NodeStates %d, NodesUp %d; want %d", nodes, got, st.NodesUp, k*n+adds)
	}
}
