package service

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rtdls/internal/rt"
)

// mixTask derives a deterministic task from its id: a mix of accepts and
// rejects on a 16-node baseline fleet.
func mixTask(id int64, arrival float64) rt.Task {
	return rt.Task{
		ID:          id,
		Arrival:     arrival,
		Sigma:       30 + float64((id*37)%350),
		RelDeadline: 500 + float64((id*91)%6000),
	}
}

// gatedPartitioner holds the first Plan call that finds it armed — inside
// a submit, under the shard's lock — until release reports true.
type gatedPartitioner struct {
	rt.IITDLT
	armed   *atomic.Bool
	release func() bool
}

func (p gatedPartitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	if p.armed.CompareAndSwap(true, false) {
		for !p.release() {
			runtime.Gosched()
		}
	}
	return p.IITDLT.Plan(ctx, t)
}

// TestPhasedLinearizationReplay alternates lone phases with 8-goroutine
// phases that contend for the shard's lock. (The first plan of a
// concurrent phase holds the lock until a second submitter is in flight,
// so every such phase overlaps at least once.) Whatever the interleaving,
// replaying the event stream's linearization through a fresh service, one
// submit at a time, reproduces every decision bit for bit. Run it under
// -race.
func TestPhasedLinearizationReplay(t *testing.T) {
	const (
		phases  = 6
		lone    = 96
		workers = 8
		each    = 20
	)
	var (
		inflight = new(atomic.Int64) // submits of the current phase in flight
		finished = new(atomic.Int64) // workers of the current phase done
	)
	gate := gatedPartitioner{armed: new(atomic.Bool), release: func() bool {
		return inflight.Load() >= 2 || finished.Load() >= workers-1
	}}
	svc := newTestService(t, func(c *Config) { c.Partitioner = gate })
	events, cancel := svc.Subscribe(1 << 15)
	order := make(chan []int64, 1)
	go func() {
		var ids []int64
		for ev := range events {
			if ev.Kind == EventAccept || ev.Kind == EventReject {
				ids = append(ids, ev.Task.ID)
			}
		}
		order <- ids
	}()

	var (
		mu    sync.Mutex
		got   = make(map[int64]Decision)
		tasks = make(map[int64]rt.Task)
		id    atomic.Int64
	)
	ctx := context.Background()
	submit := func(task rt.Task) {
		inflight.Add(1)
		d, err := svc.Submit(ctx, task)
		inflight.Add(-1)
		if err != nil {
			t.Errorf("task %d: %v", task.ID, err)
			return
		}
		mu.Lock()
		got[task.ID], tasks[task.ID] = d, task
		mu.Unlock()
	}
	arrival := 0.0
	for phase := 0; phase < phases; phase++ {
		if phase%2 == 0 {
			for i := 0; i < lone; i++ {
				arrival += 300
				submit(mixTask(id.Add(1), arrival))
			}
		} else {
			arrival += 300
			finished.Store(0)
			gate.armed.Store(true)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						submit(mixTask(id.Add(1), arrival))
					}
					finished.Add(1)
				}()
			}
			wg.Wait()
			gate.armed.Store(false)
		}
	}
	if t.Failed() {
		return
	}
	st := svc.Stats()
	svc.Close()
	cancel()
	linear := <-order
	if st.EventsDropped != 0 || len(linear) != len(got) {
		t.Fatalf("linearization has %d decisions of %d (%d events dropped)", len(linear), len(got), st.EventsDropped)
	}

	replay := newTestService(t)
	for pos, n := range linear {
		d, err := replay.Submit(ctx, tasks[n])
		if err != nil || !reflect.DeepEqual(d, got[n]) {
			t.Fatalf("pos %d task %d: replayed %+v (%v), concurrent run %+v", pos, n, d, err, got[n])
		}
	}
}
