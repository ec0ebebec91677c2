package pool

import (
	"context"
	"runtime"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// overloadPool is the overload-spill pool at its worst: four shards of eight
// nodes behind Spillover, every node committed until 1000 and every queue
// filled with accepted work, EDF ordered, until the shards refuse. The clock
// stays at 0, so nothing commits. refused returns the next arrival, one that
// every shard refuses by the demand bound: due after everything waiting,
// with more demand than the four fleets have left before its deadline.
func overloadPool(tb testing.TB) (p *Pool, refused func() rt.Task) {
	tb.Helper()
	const k, n = 4, 8
	shards := make([]ShardConfig, k)
	for i := range shards {
		cl, err := cluster.New(n, baseline)
		if err != nil {
			tb.Fatal(err)
		}
		for id := range n {
			if err := cl.Commit([]int{id}, []float64{0}, []float64{1000}, 0); err != nil {
				tb.Fatal(err)
			}
		}
		shards[i] = ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}, MaxQueue: 64}
	}
	p, err := New(Config{Shards: shards, Placement: Spillover{}, Clock: service.NewManualClock(0)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	ctx := context.Background()
	id := int64(0)
	for rejects := 0; rejects < 8; {
		id++
		d, err := p.Submit(ctx, rt.Task{ID: id, Sigma: 100, RelDeadline: 3000 + 40*float64(id)})
		if err != nil {
			tb.Fatal(err)
		}
		if !d.Accepted {
			rejects++
		}
	}
	last := 3000 + 40*float64(id)
	return p, func() rt.Task {
		id++
		return rt.Task{ID: id, Sigma: 400, RelDeadline: last}
	}
}

// BenchmarkPoolOverloadReject measures the decision that dominates the
// overload-spill traffic: an arrival that all four shards refuse by the
// demand bound, with no plan made.
func BenchmarkPoolOverloadReject(b *testing.B) {
	p, refused := overloadPool(b)
	ctx := context.Background()
	before := p.Stats().DemandRejects
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if d, err := p.Submit(ctx, refused()); err != nil || d.Accepted {
			b.Fatalf("%+v, %v: want a reject", d, err)
		}
	}
	b.StopTimer()
	if got := p.Stats().DemandRejects - before; got != 4*b.N {
		b.Fatalf("%d demand rejects over %d submits, want four each", got, b.N)
	}
}

// TestOverloadRejectAllocatesNothing: a submit that every shard refuses by
// the demand bound leaves nothing on the heap, neither an object nor a byte.
func TestOverloadRejectAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the count holds only on production builds")
	}
	p, refused := overloadPool(t)
	ctx := context.Background()
	before := p.Stats()
	submit := func() {
		if d, err := p.Submit(ctx, refused()); err != nil || d.Accepted {
			t.Fatalf("%+v, %v: want a reject", d, err)
		}
	}
	const runs = 1 << 12
	if a := testing.AllocsPerRun(runs, submit); a != 0 {
		t.Fatalf("a refused submit allocates %v objects, want 0", a)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		submit()
	}
	runtime.ReadMemStats(&m1)
	// One byte per submit is left for the test binary's other goroutines.
	if b := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; b > 1 {
		t.Fatalf("a refused submit allocates %.2f B, want 0", b)
	}
	after := p.Stats()
	if got, want := after.DemandRejects-before.DemandRejects, 4*(2*runs+1); got != want {
		t.Fatalf("%d demand rejects, want %d: every shard refuses every submit by the bound", got, want)
	}
	if after.Accepts != before.Accepts || after.QueueLen != before.QueueLen {
		t.Fatalf("the queues moved: %+v -> %+v", before, after)
	}
}
