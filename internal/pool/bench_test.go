package pool_test

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
	"rtdls/internal/workload"
)

// benchPool builds a K-shard pool of 16-node DLT-IIT clusters on a manual
// clock.
func benchPool(b *testing.B, k int, place pool.Placement, clock service.Clock) *pool.Pool {
	b.Helper()
	params := dlt.Params{Cms: 1, Cps: 100}
	shards := make([]pool.ShardConfig, k)
	for i := range shards {
		cl, err := cluster.New(16, params)
		if err != nil {
			b.Fatal(err)
		}
		shards[i] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	}
	p, err := pool.New(pool.Config{Shards: shards, Placement: place, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPoolSubmitParallel measures concurrent Submit throughput as the
// shard count grows: every goroutine runs the full admission path
// (auto-commit plus the Fig. 2 schedulability test) but contends only on
// the shard the placement picks, so on multi-core hardware throughput
// scales with the shard count where the single-lock 1-shard baseline
// serialises. The offered load per shard is held constant (the clock
// advances K× slower per submission), so the per-submission work matches
// the single-service benchmark at every K.
func BenchmarkPoolSubmitParallel(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			clock := service.NewManualClock(0)
			p := benchPool(b, k, pool.RoundRobin{}, clock)
			defer p.Close()
			var id atomic.Int64
			step := 2600.0 / float64(k) // ≈ one mean task per shard service time
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				for pb.Next() {
					n := id.Add(1)
					clock.Advance(step)
					if _, err := p.Submit(ctx, rt.Task{
						ID:          n,
						Sigma:       150 + float64(n%8)*12.5,
						RelDeadline: 5200,
					}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkPoolSubmitPlacement isolates the routing layer's cost per
// placement policy on a fixed 4-shard pool.
func BenchmarkPoolSubmitPlacement(b *testing.B) {
	placements := []pool.Placement{
		pool.RoundRobin{},
		pool.LeastLoaded{},
		pool.PowerOfTwoChoices{Seed: 1},
		pool.Spillover{Inner: pool.LeastLoaded{}},
	}
	for _, place := range placements {
		b.Run(place.Name(), func(b *testing.B) {
			clock := service.NewManualClock(0)
			p := benchPool(b, 4, place, clock)
			defer p.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance(650)
				if _, err := p.Submit(ctx, rt.Task{
					ID:          int64(i + 1),
					Sigma:       150 + float64(i%8)*12.5,
					RelDeadline: 5200,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolSubmitSpill has the shape of the overload-spill traffic: a
// 4×8 Spillover pool with a waiting-queue bound of 64 per shard, fed the
// workload.Generator stream at 20× load and DCRatio 30 by one submitter
// that moves a manual clock to each arrival. Most tasks are rejected, each
// after a test on several shards: it reports allocs/op and shard-tests/op,
// the shard admission tests (gate rejects included) per submit.
func BenchmarkPoolSubmitSpill(b *testing.B) {
	const k, n = 4, 8
	params := dlt.Params{Cms: 1, Cps: 100}
	g, err := workload.New(workload.Config{N: k * n, Params: params, SystemLoad: 20, AvgSigma: 200,
		DCRatio: 30, Horizon: math.MaxFloat64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	shards := make([]pool.ShardConfig, k)
	for i := range shards {
		cl, err := cluster.New(n, params)
		if err != nil {
			b.Fatal(err)
		}
		shards[i] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}, MaxQueue: 64}
	}
	clock := service.NewManualClock(0)
	p, err := pool.New(pool.Config{Shards: shards, Placement: pool.Spillover{}, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	submit := func() {
		t, _ := g.Next() // an infinite horizon never ends the stream
		clock.Set(t.Arrival)
		if _, err := p.Submit(ctx, *t); err != nil {
			b.Fatal(err)
		}
	}
	tests := func() (sum int) {
		for _, st := range p.ShardStats() {
			sum += st.Arrivals
		}
		return sum
	}
	for range 1000 { // fill the queues to their steady state first
		submit()
	}
	before := tests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.StopTimer()
	b.ReportMetric(float64(tests()-before)/float64(b.N), "shard-tests/op")
}
