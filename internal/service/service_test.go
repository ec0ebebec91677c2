package service

import (
	"context"
	"errors"
	"sync"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

func newTestService(t *testing.T, opts ...func(*Config)) *Service {
	t.Helper()
	cl, err := cluster.New(16, baseline)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}
	for _, o := range opts {
		o(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("nil cluster: err = %v, want ErrBadConfig", err)
	}
	cl, _ := cluster.New(2, baseline)
	if _, err := New(Config{Cluster: cl}); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("nil partitioner: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Cluster: cl, Partitioner: rt.IITDLT{}, MaxQueue: -1}); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("negative MaxQueue: err = %v, want ErrBadConfig", err)
	}
}

func TestSubmitAcceptCarriesPlan(t *testing.T) {
	svc := newTestService(t)
	dec, err := svc.Submit(context.Background(), rt.Task{ID: 1, Sigma: 200, RelDeadline: 2800})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Accepted || !dec.Reason.OK() {
		t.Fatalf("decision = %+v, want accepted", dec)
	}
	if len(dec.Nodes) == 0 || len(dec.Nodes) != len(dec.Starts) || len(dec.Nodes) != len(dec.Alphas) {
		t.Fatalf("plan slices inconsistent: %+v", dec)
	}
	if dec.Est <= 0 || dec.Est > 2800 {
		t.Fatalf("estimate %v outside (0, deadline]", dec.Est)
	}
}

func TestSubmitTypedRejections(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.Clock = NewManualClock(1000) })

	// Deadline already past at submission.
	dec, err := svc.Submit(context.Background(), rt.Task{ID: 1, Arrival: 100, Sigma: 10, RelDeadline: 50})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted || !errors.Is(dec.Reason, errs.ErrDeadlinePast) {
		t.Fatalf("decision = %+v, want ErrDeadlinePast", dec)
	}

	// Infeasible: data too large for the deadline.
	dec, err = svc.Submit(context.Background(), rt.Task{ID: 2, Sigma: 1e6, RelDeadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted || !errors.Is(dec.Reason, errs.ErrInfeasible) {
		t.Fatalf("decision = %+v, want ErrInfeasible", dec)
	}

	st := svc.Stats()
	if st.Arrivals != 2 || st.Rejects != 2 || st.Accepts != 0 {
		t.Fatalf("stats = %+v, want 2 arrivals / 2 rejects", st)
	}
}

func TestSubmitMalformedTask(t *testing.T) {
	svc := newTestService(t)
	if _, err := svc.Submit(context.Background(), rt.Task{ID: 1, Sigma: -5, RelDeadline: 10}); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("negative sigma: err = %v, want ErrBadConfig", err)
	}
	if st := svc.Stats(); st.Arrivals != 0 {
		t.Fatalf("malformed task counted as arrival: %+v", st)
	}
}

func TestMaxQueueBusy(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.MaxQueue = 1 })
	ctx := context.Background()
	// Saturate all 16 nodes: a tight deadline forces the partitioner to
	// use the whole cluster, so the next admitted task must wait.
	tight := baseline.ExecTime(400, 16) * 1.01
	if dec, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 400, RelDeadline: tight}); err != nil || !dec.Accepted {
		t.Fatalf("first submit: %+v, %v", dec, err)
	}
	if dec, err := svc.Submit(ctx, rt.Task{ID: 2, Sigma: 50, RelDeadline: 50000}); err != nil || !dec.Accepted {
		t.Fatalf("second submit: %+v, %v", dec, err)
	}
	// Task 1 committed at once (it starts at 0); task 2 waits for released
	// nodes, filling the bounded queue: the next submission must bounce.
	dec, err := svc.Submit(ctx, rt.Task{ID: 3, Sigma: 50, RelDeadline: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted || !errors.Is(dec.Reason, errs.ErrClusterBusy) {
		t.Fatalf("decision = %+v, want ErrClusterBusy", dec)
	}
}

func TestCloseRejectsSubmissions(t *testing.T) {
	svc := newTestService(t)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Submit(context.Background(), rt.Task{ID: 1, Sigma: 200, RelDeadline: 2800})
	if !errors.Is(err, errs.ErrClusterBusy) {
		t.Fatalf("submit after close: err = %v, want ErrClusterBusy", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	svc := newTestService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 200, RelDeadline: 2800}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEventStream(t *testing.T) {
	svc := newTestService(t)
	sub := svc.Subscribe(64)
	defer sub.Cancel()

	ctx := context.Background()
	decs, err := svc.SubmitBatch(ctx, []rt.Task{
		{ID: 1, Sigma: 200, RelDeadline: 2800},
		{ID: 2, Sigma: 1e6, RelDeadline: 1}, // infeasible
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 2 || !decs[0].Accepted || decs[1].Accepted {
		t.Fatalf("decisions = %+v", decs)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	var kinds []EventKind
	for ev := range sub.C() {
		kinds = append(kinds, ev.Kind)
	}
	// Task 1 is accepted and starts at once, so its commit is published by
	// the auto-commit that precedes task 2's schedulability test.
	want := []EventKind{EventAccept, EventCommit, EventReject}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	svc := newTestService(t)
	sub := svc.Subscribe(1) // never read from: overflows immediately
	defer sub.Cancel()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := svc.Submit(ctx, rt.Task{ID: int64(i + 1), Arrival: float64(i) * 5000, Sigma: 200, RelDeadline: 2800}); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.EventsDropped == 0 {
		t.Fatalf("expected dropped events, stats = %+v", st)
	}
}

func TestDroppedCountSurvivesCancel(t *testing.T) {
	svc := newTestService(t)
	sub := svc.Subscribe(1) // never read from: overflows immediately
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := svc.Submit(ctx, rt.Task{ID: int64(i + 1), Arrival: float64(i) * 5000, Sigma: 200, RelDeadline: 2800}); err != nil {
			t.Fatal(err)
		}
	}
	before := svc.Stats().EventsDropped
	if before == 0 {
		t.Fatal("expected dropped events before cancel")
	}
	sub.Cancel()
	if after := svc.Stats().EventsDropped; after != before {
		t.Fatalf("EventsDropped went from %d to %d after cancel; must be monotone", before, after)
	}
}

func TestDrainCommitsEverything(t *testing.T) {
	svc := newTestService(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(ctx, rt.Task{ID: int64(i + 1), Sigma: 100, RelDeadline: 50000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.QueueLen != 0 || st.Commits != st.Accepts {
		t.Fatalf("after drain: %+v", st)
	}
	ex := svc.Exec()
	if ex.Committed != st.Accepts || ex.MaxLateness > 0 {
		t.Fatalf("exec stats after drain: %+v", ex)
	}
}

// releaseBeforeStart plans like IITDLT, except that the trigger task's first
// node is released before it starts, a plan cluster.Commit refuses.
type releaseBeforeStart struct {
	rt.IITDLT
	trigger int64
}

func (p releaseBeforeStart) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	pl, err := p.IITDLT.Plan(ctx, t)
	if err == nil && t.ID == p.trigger {
		pl.Release[0] = pl.Starts[0] - 1
	}
	return pl, err
}

// TestFailedSweepAccountsItsPrefix: when a due-commit sweep fails, the plans
// it committed before the failing one are in the cluster's and the
// scheduler's counts, so they are in the execution metrics and the event
// stream too.
func TestFailedSweepAccountsItsPrefix(t *testing.T) {
	clock := NewManualClock(0)
	svc := newTestService(t, func(c *Config) {
		c.Clock = clock
		c.Partitioner = releaseBeforeStart{trigger: 2}
		ids, starts, release := make([]int, 16), make([]float64, 16), make([]float64, 16)
		for i := range ids {
			ids[i], release[i] = i, 100
		}
		if err := c.Cluster.Commit(ids, starts, release, 0); err != nil {
			t.Fatal(err)
		}
	})
	sub := svc.Subscribe(16)
	defer sub.Cancel()
	for id := int64(1); id <= 2; id++ { // both wait for the fleet, task 1 ahead
		dec, err := svc.Submit(context.Background(), rt.Task{ID: id, Sigma: 100, RelDeadline: 5e4 * float64(id)})
		if err != nil || !dec.Accepted {
			t.Fatalf("task %d: %+v, %v", id, dec, err)
		}
	}
	clock.Set(1e4)
	if err := svc.CommitDue(1e4); err == nil {
		t.Fatal("the sweep committed a plan that releases a node before its start")
	}
	if ex, st := svc.Exec(), svc.Stats(); ex.Committed != 1 || st.Commits != 1 {
		t.Fatalf("Exec().Committed = %d, Stats().Commits = %d, want 1 and 1", ex.Committed, st.Commits)
	}
	for len(sub.C()) > 0 {
		if ev := <-sub.C(); ev.Kind == EventCommit && ev.Task.ID == 1 {
			return
		}
	}
	t.Fatal("no EventCommit for task 1")
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(5)
	if c.Now() != 5 {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Set(3) // backwards: no-op
	if c.Now() != 5 {
		t.Fatalf("clock moved backwards to %v", c.Now())
	}
	if got := c.Advance(2.5); got != 7.5 || c.Now() != 7.5 {
		t.Fatalf("Advance = %v, Now = %v", got, c.Now())
	}
	if got := c.Advance(-1); got != 7.5 {
		t.Fatalf("negative advance moved clock to %v", got)
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock(1000)
	a := c.Now()
	b := c.Now()
	if b < a || a < 0 {
		t.Fatalf("wall clock not monotone: %v then %v", a, b)
	}
}

// TestConcurrentSubmitStress drives one service from many goroutines under
// the race detector: decision totals must equal submissions and internal
// accounting must stay consistent.
func TestConcurrentSubmitStress(t *testing.T) {
	svc := newTestService(t)
	const (
		workers = 8
		each    = 100
	)
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
				dec, err := svc.Submit(ctx, rt.Task{
					ID:          id,
					Sigma:       50 + float64(id%300),
					RelDeadline: 2000 + float64(id%5000),
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if dec.Accepted {
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
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Arrivals != workers*each {
		t.Fatalf("arrivals = %d, want %d", st.Arrivals, workers*each)
	}
	if st.Accepts != accepted || st.Rejects != rejected {
		t.Fatalf("stats %d/%d disagree with decisions %d/%d", st.Accepts, st.Rejects, accepted, rejected)
	}
	if st.Accepts+st.Rejects != st.Arrivals {
		t.Fatalf("accounting mismatch: %+v", st)
	}
	if st.Commits != st.Accepts || st.QueueLen != 0 {
		t.Fatalf("drain incomplete: %+v", st)
	}
	if ex := svc.Exec(); ex.MaxLateness > 0 {
		t.Fatalf("hard real-time guarantee violated: max lateness %v", ex.MaxLateness)
	}
}
