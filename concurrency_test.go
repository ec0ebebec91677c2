package rtdls_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtdls"
)

// mixTask derives a deterministic task from its id, so the concurrent run
// and the serialized replay construct bit-identical inputs.
func mixTask(id int64) rtdls.Task {
	return rtdls.Task{
		ID:          id,
		Sigma:       30 + float64((id*37)%350),
		RelDeadline: 500 + float64((id*91)%6000),
	}
}

// overlapObserver is a Verifier whose first decision callback, made inside
// a submit under the shard lock, holds that submit until every other
// submitter has started and had time to reach the shard, so the run
// overlaps: the others queue on the lock.
type overlapObserver struct {
	*rtdls.Verifier
	submitters int64
	started    atomic.Int64
	held       atomic.Bool
}

func (o *overlapObserver) hold() {
	if o.held.CompareAndSwap(false, true) {
		for o.started.Load() < o.submitters {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
	}
}

func (o *overlapObserver) OnAccept(now float64, t *rtdls.Task, p *rtdls.Plan) {
	o.hold()
	o.Verifier.OnAccept(now, t, p)
}

func (o *overlapObserver) OnReject(now float64, t *rtdls.Task) {
	o.hold()
	o.Verifier.OnReject(now, t)
}

// TestConcurrentStressChurn hammers one shard from 16 goroutines — twelve
// submitters alternating Submit and SubmitBatch, four churners failing and
// restoring their own node — with an independent Verifier re-checking
// every commitment. Run under -race (CI does), this is the data-race net
// over the whole admission surface: submits, batches, due-commit sweeps,
// lock-free Stats reads and fleet-triggered re-validation all interleave.
// After a drain the conservation identity must hold exactly:
// accepts == commits + displaced − readmitted.
func TestConcurrentStressChurn(t *testing.T) {
	const (
		submitters = 12
		churners   = 4
		each       = 60
	)
	verifier := &overlapObserver{Verifier: rtdls.NewVerifier(rtdls.Params{Cms: 1, Cps: 100}, 16), submitters: submitters}
	svc, err := rtdls.New(
		rtdls.WithNodes(16),
		rtdls.WithParams(rtdls.Params{Cms: 1, Cps: 100}),
		rtdls.WithPolicy(rtdls.EDF),
		rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
		rtdls.WithObserver(verifier),
	)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		id       atomic.Int64
		mu       sync.Mutex
		accepted int
		rejected int
	)
	ctx := context.Background()
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			verifier.started.Add(1)
			la, lr := 0, 0
			count := func(d rtdls.Decision) {
				if d.Accepted {
					la++
				} else {
					lr++
				}
			}
			for i := 0; i < each; i++ {
				if i%3 == 2 {
					batch := []rtdls.Task{mixTask(id.Add(1)), mixTask(id.Add(1)), mixTask(id.Add(1))}
					decs, err := svc.SubmitBatch(ctx, batch)
					if err != nil {
						t.Errorf("worker %d batch: %v", w, err)
						return
					}
					for _, d := range decs {
						count(d)
					}
				} else {
					d, err := svc.Submit(ctx, mixTask(id.Add(1)))
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					count(d)
				}
			}
			mu.Lock()
			accepted += la
			rejected += lr
			mu.Unlock()
		}(w)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < each/2; i++ {
				if _, err := svc.SetNodeState(node, rtdls.NodeDown); err != nil {
					t.Errorf("fail node %d: %v", node, err)
					return
				}
				if _, err := svc.SetNodeState(node, rtdls.NodeUp); err != nil {
					t.Errorf("restore node %d: %v", node, err)
					return
				}
			}
		}(12 + c) // one node per churner: no double-fail interleavings
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	svc.Close()

	if accepted+rejected != st.Arrivals || st.Accepts != accepted || st.Rejects != rejected {
		t.Fatalf("decision totals %d+%d disagree with stats %+v", accepted, rejected, st)
	}
	if st.Accepts != st.Commits+st.Displaced-st.Readmitted {
		t.Fatalf("conservation broken after drain: accepts=%d commits=%d displaced=%d readmitted=%d",
			st.Accepts, st.Commits, st.Displaced, st.Readmitted)
	}
	if st.QueueLen != 0 {
		t.Fatalf("drain left %d tasks queued", st.QueueLen)
	}
	if !verifier.OK() {
		t.Fatalf("verifier found violations:\n%s", verifier.Report())
	}
}

// lifetimeObserver holds the engine to the observer contract on task
// records: every OnCommit sees, field for field, the task its OnAccept saw,
// though the record of a task that died may carry another task since.
// Shards call it concurrently.
type lifetimeObserver struct {
	mu                        sync.Mutex
	waiting                   map[int64]rtdls.Task // accepted, not yet committed
	accepts, rejects, commits int
	bad                       []string
}

func (o *lifetimeObserver) OnAccept(_ float64, t *rtdls.Task, p *rtdls.Plan) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.accepts++
	if t.ID <= 0 || *p.Task != *t {
		o.bad = append(o.bad, fmt.Sprintf("accept of %+v with a plan for %+v", *t, *p.Task))
	}
	o.waiting[t.ID] = *t // a displaced task may be accepted again elsewhere
}

func (o *lifetimeObserver) OnReject(_ float64, t *rtdls.Task) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rejects++
	if t.ID <= 0 {
		o.bad = append(o.bad, fmt.Sprintf("reject of %+v", *t))
	}
}

func (o *lifetimeObserver) OnCommit(_ float64, p *rtdls.Plan) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.commits++
	if want, ok := o.waiting[p.Task.ID]; !ok || *p.Task != want {
		o.bad = append(o.bad, fmt.Sprintf("commit of %+v, accepted as %+v", *p.Task, want))
	}
	delete(o.waiting, p.Task.ID)
}

// TestConcurrentTaskLifetime: task records go back to their shard's free
// list when their task dies, and no live task ever sees one. Four
// submitters (single submits and batches of three, each stepping the
// clock), a pump committing what those steps made due, and a churner
// draining and restoring nodes run together on one shard and on a 4-shard
// spillover pool, and every commit must carry the task its accept carried.
// Run it under -race.
func TestConcurrentTaskLifetime(t *testing.T) {
	const (
		submitters = 4
		each       = 120
	)
	for _, tc := range []struct {
		name string
		opts []rtdls.Option
	}{
		{"one-shard", []rtdls.Option{rtdls.WithNodes(16)}},
		{"spillover", []rtdls.Option{rtdls.WithShards(4), rtdls.WithNodes(4), rtdls.WithPlacement(rtdls.Spillover{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &lifetimeObserver{waiting: make(map[int64]rtdls.Task)}
			clock := rtdls.NewManualClock(0)
			svc, err := rtdls.New(append(tc.opts, rtdls.WithClock(clock), rtdls.WithObserver(obs))...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ctx := context.Background()
			var (
				work, side sync.WaitGroup
				id         atomic.Int64
				stop       atomic.Bool
			)
			for w := 0; w < submitters; w++ {
				work.Add(1)
				go func() {
					defer work.Done()
					for i := 0; i < each; i++ {
						clock.Advance(100)
						var err error
						if i%3 == 2 {
							_, err = svc.SubmitBatch(ctx, []rtdls.Task{mixTask(id.Add(1)), mixTask(id.Add(1)), mixTask(id.Add(1))})
						} else {
							_, err = svc.Submit(ctx, mixTask(id.Add(1)))
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			side.Add(2)
			go func() {
				defer side.Done()
				for !stop.Load() {
					if err := svc.Pump(); err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}()
			go func() {
				defer side.Done()
				for i := 0; !stop.Load(); i++ {
					node := (5 * i) % 16
					for _, st := range []rtdls.NodeState{rtdls.NodeDraining, rtdls.NodeUp} {
						if _, err := svc.SetNodeState(node, st); err != nil {
							t.Error(err)
							return
						}
					}
					runtime.Gosched()
				}
			}()
			work.Wait()
			stop.Store(true)
			side.Wait()
			if t.Failed() {
				return
			}
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
			st := svc.Stats()
			obs.mu.Lock()
			defer obs.mu.Unlock()
			t.Logf("%d accepts, %d rejects, %d commits, %d displaced, %d readmitted",
				obs.accepts, obs.rejects, obs.commits, st.Displaced, st.Readmitted)
			if len(obs.bad) > 0 {
				t.Fatalf("%d task records seen after their task died, first: %s", len(obs.bad), obs.bad[0])
			}
			if obs.rejects == 0 || obs.commits == 0 || obs.commits != st.Commits {
				t.Fatalf("%d rejects and %d commits observed, %d counted: want both kinds", obs.rejects, obs.commits, st.Commits)
			}
			if len(obs.waiting) != st.Displaced-st.Readmitted {
				t.Fatalf("%d accepted tasks never committed, %d displaced and not readmitted",
					len(obs.waiting), st.Displaced-st.Readmitted)
			}
		})
	}
}

// TestConcurrentLinearizationReplay is the linearizability property test:
// whatever interleaving the concurrent run produced, replaying the same
// tasks in the same linearization order through a fresh service, one
// submit at a time, must reproduce every Decision bit for bit — accepts,
// rejects, node sets, starts, alphas and estimates. The event stream
// publishes decisions in decision order under the shard's lock, so it IS
// the linearization.
func TestConcurrentLinearizationReplay(t *testing.T) {
	const (
		workers = 8
		each    = 40
	)
	newSvc := func(opts ...rtdls.Option) *rtdls.Service {
		svc, err := rtdls.New(append([]rtdls.Option{
			rtdls.WithNodes(16),
			rtdls.WithParams(rtdls.Params{Cms: 1, Cps: 100}),
			rtdls.WithPolicy(rtdls.EDF),
			rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
			rtdls.WithClock(rtdls.NewManualClock(0)), // frozen: `now` is 0 in both runs
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	// Concurrent run; the observer holds the first decision until every
	// worker has started, so submits overlap.
	observer := &overlapObserver{Verifier: rtdls.NewVerifier(rtdls.Params{Cms: 1, Cps: 100}, 16), submitters: workers}
	svc := newSvc(rtdls.WithObserver(observer))
	sub := svc.Subscribe(1 << 15)
	order := make(chan []int64, 1)
	go func() {
		var ids []int64
		for ev := range sub.C() {
			if ev.Kind == rtdls.EventAccept || ev.Kind == rtdls.EventReject {
				ids = append(ids, ev.Task.ID)
			}
		}
		order <- ids
	}()

	var (
		wg  sync.WaitGroup
		id  atomic.Int64
		mu  sync.Mutex
		got = make(map[int64]rtdls.Decision, workers*each)
	)
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			observer.started.Add(1)
			for i := 0; i < each; i++ {
				n := id.Add(1)
				d, err := svc.Submit(ctx, mixTask(n))
				if err != nil {
					t.Errorf("task %d: %v", n, err)
					return
				}
				mu.Lock()
				got[n] = d
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := svc.Stats()
	svc.Close()
	sub.Cancel()
	linear := <-order

	if st.EventsDropped != 0 {
		t.Fatalf("%d events dropped; the linearization record is incomplete", st.EventsDropped)
	}
	if len(linear) != workers*each {
		t.Fatalf("linearization has %d decisions, want %d", len(linear), workers*each)
	}
	if !observer.OK() {
		t.Fatalf("verifier found violations:\n%s", observer.Report())
	}

	// One-at-a-time replay of the identical linearization order.
	replay := newSvc()
	defer replay.Close()
	for pos, n := range linear {
		want := got[n]
		d, err := replay.Submit(ctx, mixTask(n))
		if err != nil {
			t.Fatalf("replay pos %d task %d: %v", pos, n, err)
		}
		if d.Accepted != want.Accepted {
			t.Fatalf("pos %d task %d: accepted=%v, concurrent run said %v", pos, n, d.Accepted, want.Accepted)
		}
		if d.Reason != want.Reason {
			t.Fatalf("pos %d task %d: reason=%q, concurrent run said %q", pos, n, d.Reason, want.Reason)
		}
		if math.Float64bits(d.Est) != math.Float64bits(want.Est) || d.Rounds != want.Rounds ||
			math.Float64bits(d.At) != math.Float64bits(want.At) {
			t.Fatalf("pos %d task %d: est/rounds/at %v/%d/%v != %v/%d/%v",
				pos, n, d.Est, d.Rounds, d.At, want.Est, want.Rounds, want.At)
		}
		if len(d.Nodes) != len(want.Nodes) {
			t.Fatalf("pos %d task %d: %d nodes != %d", pos, n, len(d.Nodes), len(want.Nodes))
		}
		for i := range d.Nodes {
			if d.Nodes[i] != want.Nodes[i] ||
				math.Float64bits(d.Starts[i]) != math.Float64bits(want.Starts[i]) ||
				math.Float64bits(d.Alphas[i]) != math.Float64bits(want.Alphas[i]) {
				t.Fatalf("pos %d task %d node %d: plan diverges from concurrent run", pos, n, i)
			}
		}
	}
}

// TestConcurrentSubmitAllocs: submitters that overlap on one shard cost no
// more heap objects per submit than a lone one. Four goroutines each submit
// 2,000 tasks of the mixed stream to a one-shard engine while the clock
// moves on; every task record comes back from the shard's free list, every
// decision copy is cut from the shard's arenas and every plan from the
// scheduler's pool, so only chunk refills allocate, far less than once per
// submit, and the bytes are the accepted Decisions' copies and little more.
func TestConcurrentSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the budget holds only on production builds")
	}
	const (
		submitters = 4
		each       = 2000
		budget     = 0.1 // heap objects per submit
		// bytesBudget is the heap bytes per submit beside the accepted
		// Decisions' copies: the fresh engine's first arena chunks (about
		// 7 B per submit) and chunk rests. A task record per submit (40 B)
		// does not fit.
		bytesBudget = 16.0
	)
	clock := rtdls.NewManualClock(0)
	svc, err := rtdls.New(rtdls.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var (
		wg       sync.WaitGroup
		id       atomic.Int64
		accepted atomic.Int64
		copies   atomic.Int64 // bytes of the accepted Decisions' slices
		start    = make(chan struct{})
	)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				clock.Advance(40)
				d, err := svc.Submit(ctx, mixTask(id.Add(1)))
				if err != nil {
					t.Error(err)
					return
				}
				if d.Accepted {
					accepted.Add(1)
					copies.Add(int64(8 * (len(d.Nodes) + len(d.Starts) + len(d.Alphas))))
				}
			}
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	wg.Wait()
	runtime.ReadMemStats(&after)
	if t.Failed() {
		return
	}
	n := submitters * each
	if a := accepted.Load(); a == 0 || a == int64(n) {
		t.Fatalf("%d of %d submits accepted: want a mix", a, n)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(n)
	extra := (float64(after.TotalAlloc-before.TotalAlloc) - float64(copies.Load())) / float64(n)
	t.Logf("%.4f heap objects and %.2f B beside the Decision copies per submit over %d overlapping submits (%d accepted)",
		per, extra, n, accepted.Load())
	if per > budget {
		t.Fatalf("%.3f heap objects per submit from %d overlapping submitters, want at most %.1f", per, submitters, budget)
	}
	if extra > bytesBudget {
		t.Fatalf("%.2f B per submit beside the Decision copies from %d overlapping submitters, want at most %.0f",
			extra, submitters, bytesBudget)
	}
}
