package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// TestSubscriptionCancelDetaches: a cancelled subscription leaves the bus.
// HasSubscribers reads false, a later Publish neither panics nor delivers,
// and a second Cancel is a no-op.
func TestSubscriptionCancelDetaches(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(4)
	if !b.HasSubscribers() {
		t.Fatal("no subscriber after Subscribe")
	}
	sub.Cancel()
	if b.HasSubscribers() {
		t.Fatal("HasSubscribers after Cancel")
	}
	b.Publish(Event{Kind: EventAccept, Task: rt.Task{ID: 1}})
	if ev, ok := <-sub.C(); ok {
		t.Fatalf("cancelled subscription received %+v", ev)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("cancelled subscription counted %d drops", d)
	}
	sub.Cancel()
	b.Close()
}

// errInjected is the hard error failingPartitioner returns.
var errInjected = errors.New("injected planner fault")

// failingPartitioner plans like IITDLT, counting its Plan calls, and fails
// the call numbered failAt (counted from 1; 0 never) with a hard error, or
// with a panic when panics is set.
type failingPartitioner struct {
	rt.IITDLT
	calls, failAt int
	panics        bool
}

func (p *failingPartitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	if p.calls++; p.calls == p.failAt {
		if p.panics {
			panic(errInjected)
		}
		return nil, errInjected
	}
	return p.IITDLT.Plan(ctx, t)
}

// TestHardErrorMidTailFreesRecord injects a hard planner error into the
// second fresh plan of a test that replans a tail of at least three. The
// submit returns the error and decides nothing, its task record goes back
// to the free list, the shard's lock is free, and every decision after it
// equals that of a service that never saw the submit.
func TestHardErrorMidTailFreesRecord(t *testing.T) { midTailFault(t, false) }

// TestPanicMidTailFreesRecord is the same with a panic in place of the
// error: the submit panics out of Submit and decides nothing, and once the
// caller has recovered, the spare-record count and the counters are what
// they were before it.
func TestPanicMidTailFreesRecord(t *testing.T) { midTailFault(t, true) }

func midTailFault(t *testing.T, panics bool) {
	ctx := context.Background()
	stream := make([]rt.Task, 200)
	for i := range stream {
		stream[i] = mixTask(int64(i+1), float64(i+1)*15)
	}
	newSvc := func() (*Service, *failingPartitioner) {
		part := &failingPartitioner{panics: panics}
		return newTestService(t, func(c *Config) {
			c.Partitioner = part
			c.Clock = NewManualClock(0)
		}), part
	}

	// Probe: the first submit after a warm-up that computes three or more
	// fresh plans, and the Plan calls made before it.
	probe, _ := newSvc()
	victim, callsBefore := -1, 0
	for i, task := range stream {
		before := probe.Stats().PlansComputed
		if _, err := probe.Submit(ctx, task); err != nil {
			t.Fatal(err)
		}
		if i >= 20 && probe.Stats().PlansComputed-before >= 3 {
			victim, callsBefore = i, before
			break
		}
	}
	if victim < 0 {
		t.Fatal("no submit in the stream replans a tail of three")
	}

	ref, _ := newSvc()
	svc, part := newSvc()
	for i, task := range stream {
		if i != victim {
			want, werr := ref.Submit(ctx, task)
			got, gerr := svc.Submit(ctx, task)
			if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("task %d: got %+v, %v; want %+v, %v", task.ID, got, gerr, want, werr)
			}
			continue
		}
		spares := len(svc.spare)
		if spares == 0 {
			t.Fatal("no spare record before the faulty submit")
		}
		record := svc.spare[spares-1]
		st0 := svc.Stats()
		part.failAt = callsBefore + 2
		var d Decision
		var err error
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			d, err = svc.Submit(ctx, task)
		}()
		if panics && recovered != errInjected || !panics && (recovered != nil || !errors.Is(err, errInjected)) ||
			!reflect.DeepEqual(d, Decision{}) {
			t.Fatalf("faulty submit: %+v, %v, recovered %v; want no decision and the injected fault", d, err, recovered)
		}
		if part.calls != part.failAt {
			t.Fatalf("%d Plan calls, the fault was at %d", part.calls, part.failAt)
		}
		if st := svc.Stats(); st.Arrivals != st0.Arrivals || st.Accepts != st0.Accepts ||
			st.Rejects != st0.Rejects || st.QueueLen != st0.QueueLen {
			t.Fatalf("faulty submit decided: arrivals %d → %d, accepts %d → %d, rejects %d → %d, queue %d → %d",
				st0.Arrivals, st.Arrivals, st0.Accepts, st.Accepts, st0.Rejects, st.Rejects, st0.QueueLen, st.QueueLen)
		}
		if len(svc.spare) != spares || !slices.Contains(svc.spare, record) || *record != (rt.Task{}) {
			t.Fatalf("%d spare records, %d before: the faulty submit's record is not back on the free list, cleared: %+v",
				len(svc.spare), spares, *record)
		}
		if !svc.mu.TryLock() {
			t.Fatal("the faulty submit left the shard locked")
		}
		svc.mu.Unlock()
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := svc.Exec(), ref.Exec(); got != want {
		t.Fatalf("execution metrics %+v, want %+v", got, want)
	}
}

// heapBytes returns the heap bytes runs calls of f allocate, per call.
func heapBytes(runs int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestSubmitBytes pins what a decided submit leaves on the heap at steady
// state. A rejected task's record goes back to the free list, so a reject
// allocates nothing, whoever decides it; 1 B per submit is left for the
// test binary's other goroutines. An accepted task's record goes back when
// it commits, so an accept that later commits allocates only its
// Decision's Nodes and Starts | Alphas copies, cut from 4 KB chunks.
func TestSubmitBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the budget holds only on production builds")
	}
	const runs = 1 << 14
	ctx := context.Background()
	submit := func(svc *Service, task rt.Task, want errs.Reason) Decision {
		d, err := svc.Submit(ctx, task)
		if err != nil || d.Accepted != (want == errs.ReasonNone) || d.Reason != want {
			t.Fatalf("task %d: %+v, %v; want reason %q", task.ID, d, err, want)
		}
		return d
	}
	rejects := []struct {
		name   string
		cfg    func(*Config)
		reason errs.Reason
		task   func(now float64) rt.Task
	}{
		{"infeasible", nil, errs.ReasonInfeasible, func(float64) rt.Task {
			return rt.Task{Sigma: 0.155 * 5200, RelDeadline: 5200}
		}},
		{"deadline-past", nil, errs.ReasonDeadlinePast, func(now float64) rt.Task {
			return rt.Task{Arrival: now - 20, Sigma: 100, RelDeadline: 10}
		}},
		{"busy", func(c *Config) {
			// Every node is held far into the future, so one accepted task
			// waits and fills the queue.
			c.MaxQueue = 1
			ids, starts, release := make([]int, 16), make([]float64, 16), make([]float64, 16)
			for i := range ids {
				ids[i], release[i] = i, 1e9
			}
			if err := c.Cluster.Commit(ids, starts, release, 0); err != nil {
				t.Fatal(err)
			}
		}, errs.ReasonBusy, func(float64) rt.Task {
			return rt.Task{Sigma: 100, RelDeadline: 1e12}
		}},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			clock := NewManualClock(100)
			svc := newTestService(t, func(c *Config) {
				c.Clock = clock
				if tc.cfg != nil {
					tc.cfg(c)
				}
			})
			id := int64(1)
			if tc.reason == errs.ReasonBusy {
				submit(svc, rt.Task{ID: id, Sigma: 100, RelDeadline: 1e12}, errs.ReasonNone)
			}
			next := func() {
				id++
				clock.Advance(10)
				task := tc.task(clock.Now())
				task.ID = id
				submit(svc, task, tc.reason)
			}
			for range 64 {
				next()
			}
			if b := heapBytes(runs, next); b > 1 {
				t.Fatalf("a %s reject allocates %.2f B, want 0", tc.name, b)
			}
		})
	}

	t.Run("accept-commit", func(t *testing.T) {
		clock := NewManualClock(0)
		svc := newTestService(t, func(c *Config) { c.Clock = clock })
		id, k := int64(0), 0
		next := func() {
			// The previous task's plan is due: this submit commits it first.
			id++
			clock.Advance(2600)
			d := submit(svc, rt.Task{ID: id, Sigma: 200, RelDeadline: 5200}, errs.ReasonNone)
			if k == 0 {
				k = len(d.Nodes)
			} else if len(d.Nodes) != k {
				t.Fatalf("task %d on %d nodes, the others on %d", id, len(d.Nodes), k)
			}
		}
		for range 64 {
			next()
		}
		b := heapBytes(runs, next)
		// k nodes fill an int chunk, and 2k floats a float chunk, with no
		// rest, so the copies cost exactly 24k B per decision. A window may
		// start one chunk of each early.
		if 512%(2*k) != 0 {
			t.Fatalf("a plan of %d nodes does not divide a 4 KB chunk: the budget below is inexact", k)
		}
		copies := float64(24 * k)
		if b > copies+2*4096.0/runs+1 {
			t.Fatalf("an accepted and committed task allocates %.2f B, want at most its %.0f B of Decision copies", b, copies)
		}
		if st := svc.Stats(); st.Commits < runs {
			t.Fatalf("%d commits over %d accepts: the records were not freed by commits", st.Commits, runs)
		}
	})
}
