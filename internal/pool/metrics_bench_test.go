package pool_test

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/metrics"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// benchObservedPool mirrors benchPool with the metrics layer wired in.
func benchObservedPool(b *testing.B, k int, clock service.Clock) (*pool.Pool, *metrics.Registry) {
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
	reg := metrics.NewRegistry()
	p, err := pool.New(pool.Config{
		Shards: shards, Placement: pool.RoundRobin{}, Clock: clock,
		Metrics: service.NewMetrics(reg),
	})
	if err != nil {
		b.Fatal(err)
	}
	return p, reg
}

// BenchmarkPoolSubmitParallelObserved is BenchmarkPoolSubmitParallel with
// the full metrics layer installed (per-stage histograms, per-shard
// counters). The scrape=on rows add a background goroutine rendering the
// registry every 10ms — three orders of magnitude hotter than any real
// Prometheus scrape interval. Comparing scrape=off against scrape=on isolates the
// cost of scraping itself; the acceptance bar is under 5% on submit
// throughput, which holds because a scrape only reads atomics and never
// touches a shard's lock. (Comparing scrape=off against the plain
// benchmark instead measures the cost of instrumentation on the admission
// hot path: per-stage clock reads plus a handful of atomic adds per
// submission.)
func BenchmarkPoolSubmitParallelObserved(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, scrape := range []bool{false, true} {
			b.Run(fmt.Sprintf("shards=%d/scrape=%v", k, scrape), func(b *testing.B) {
				clock := service.NewManualClock(0)
				p, reg := benchObservedPool(b, k, clock)
				defer p.Close()

				if scrape {
					stop := make(chan struct{})
					done := make(chan struct{})
					go func() {
						defer close(done)
						ticker := time.NewTicker(10 * time.Millisecond)
						defer ticker.Stop()
						for {
							select {
							case <-stop:
								return
							case <-ticker.C:
								reg.WriteTo(io.Discard) //nolint:errcheck // Discard never fails
							}
						}
					}()
					defer func() { close(stop); <-done }()
				}

				var id atomic.Int64
				step := 2600.0 / float64(k)
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
				b.StopTimer()
			})
		}
	}
}
