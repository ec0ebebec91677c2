package pool

import (
	"context"
	"testing"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// wallPool builds a one-shard pool of four nodes on a wall clock at scale
// sim units per second, subscribed to its event stream.
func wallPool(t *testing.T, scale float64) (*Pool, *service.Subscription) {
	t.Helper()
	cl, err := cluster.New(4, baseline)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Shards: []ShardConfig{{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}}},
		Clock:  service.NewWallClock(scale),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := p.Subscribe(64)
	t.Cleanup(func() { sub.Cancel(); p.Close() })
	return p, sub
}

// awaitCommit waits up to lag of wall time for task id's EventCommit.
func awaitCommit(t *testing.T, sub *service.Subscription, id int64, lag time.Duration) service.Event {
	t.Helper()
	deadline := time.After(lag)
	for {
		select {
		case ev := <-sub.C():
			if ev.Kind == service.EventCommit && ev.Task.ID == id {
				return ev
			}
		case <-deadline:
			t.Fatalf("task %d: no commit within %v of wall time", id, lag)
		}
	}
}

// TestConcurrentWallClockPumpCommits: on a wall clock an accepted plan
// commits on time with no further traffic. The pump commits a plan due at
// once, sleeps until a plan due later, re-arms when an accept brings the
// next commit forward, and stops on Close; a ManualClock pool runs none.
func TestConcurrentWallClockPumpCommits(t *testing.T) {
	const lag = time.Second // of wall time, far above a timer's slack
	ctx := context.Background()
	p, sub := wallPool(t, 1e4)
	d, err := p.Submit(ctx, rt.Task{ID: 1, Sigma: 1, RelDeadline: 1e6})
	if err != nil || !d.Accepted {
		t.Fatalf("submit: %+v, %v", d, err)
	}
	ev := awaitCommit(t, sub, 1, lag)
	if ev.Time < d.Starts[0] {
		t.Fatalf("committed at %v, before its first start %v", ev.Time, d.Starts[0])
	}

	// A task whose first start lies 500 ms ahead waits for it; then one due
	// at once re-arms the pump ahead of it and commits first. With node 3
	// drained, three long tasks hold the other nodes for 5050 units, so the
	// late task waits behind them; node 3 comes back, and the early task,
	// due before the late one, holds it until after that task's first start.
	if _, err := p.SetNodeState(3, service.NodeDraining); err != nil {
		t.Fatal(err)
	}
	for id := int64(11); id <= 13; id++ {
		if d, err := p.Submit(ctx, rt.Task{ID: id, Sigma: 50, RelDeadline: 1e6}); err != nil || !d.Accepted {
			t.Fatalf("long submit: %+v, %v", d, err)
		}
	}
	late, err := p.Submit(ctx, rt.Task{ID: 2, Sigma: 1, RelDeadline: 1e6})
	if err != nil || !late.Accepted {
		t.Fatalf("late submit: %+v, %v", late, err)
	}
	if _, err := p.SetNodeState(3, service.NodeUp); err != nil {
		t.Fatal(err)
	}
	if d, err := p.Submit(ctx, rt.Task{ID: 3, Sigma: 60, RelDeadline: 1e5}); err != nil || !d.Accepted || d.Starts[0] >= late.Starts[0] {
		t.Fatalf("submit: %+v, %v; want an accept that starts before %v", d, err, late.Starts[0])
	}
	if ev := awaitCommit(t, sub, 3, lag); ev.Time >= late.Starts[0] {
		t.Fatalf("the early task committed at %v, not before the late one's first start %v", ev.Time, late.Starts[0])
	}
	if ev := awaitCommit(t, sub, 2, lag); ev.Time < late.Starts[0] {
		t.Fatalf("the late task committed at %v, before its first start %v", ev.Time, late.Starts[0])
	}

	p.Close()
	select {
	case <-p.pumped:
	default:
		t.Fatal("Close left the pump running")
	}
	if m := newPool(t, 1, 4, nil); m.kick != nil {
		t.Fatal("a ManualClock pool runs a pump")
	}
}

// TestConcurrentWallClockPumpDrain: Drain stops the pump before it commits
// what waits, and a second stop (Close) does not block.
func TestConcurrentWallClockPumpDrain(t *testing.T) {
	p, sub := wallPool(t, 1)
	// Four long tasks ahead of it hold the four nodes for 3636 units, so
	// the task's first start lies an hour ahead.
	for id := int64(11); id <= 14; id++ {
		if d, err := p.Submit(context.Background(), rt.Task{ID: id, Sigma: 36, RelDeadline: 1e6}); err != nil || !d.Accepted {
			t.Fatalf("long submit: %+v, %v", d, err)
		}
	}
	if d, err := p.Submit(context.Background(), rt.Task{ID: 1, Sigma: 50, RelDeadline: 1e6}); err != nil || !d.Accepted {
		t.Fatalf("submit: %+v, %v", d, err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	awaitCommit(t, sub, 1, time.Second)
	select {
	case <-p.pumped:
	default:
		t.Fatal("Drain left the pump running")
	}
	p.Close()
}
