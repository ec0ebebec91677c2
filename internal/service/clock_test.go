package service

import (
	"context"
	"errors"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// TestConcurrentWallClockFutureArrival: on a wall clock the client cannot
// move time. Five tasks wait on one node, each behind the one before; a
// submit stamped far in the future is malformed input, and the plans that
// fall due only by its arrival stay waiting instead of committing at once.
func TestConcurrentWallClockFutureArrival(t *testing.T) {
	svc := newTestService(t, func(c *Config) {
		cl, err := cluster.New(1, baseline)
		if err != nil {
			t.Fatal(err)
		}
		c.Cluster, c.Clock = cl, NewWallClock(1)
	})
	ctx := context.Background()
	for id := int64(1); id <= 5; id++ {
		if d, err := svc.Submit(ctx, rt.Task{ID: id, Sigma: 200, RelDeadline: 1e6}); err != nil || !d.Accepted {
			t.Fatalf("task %d: %+v, %v", id, d, err)
		}
	}
	before := svc.Stats()
	if before.QueueLen < 4 {
		t.Fatalf("%d tasks waiting, want the last four at least", before.QueueLen)
	}
	d, err := svc.Submit(ctx, rt.Task{ID: 6, Arrival: 1e12, Sigma: 200, RelDeadline: 1e6})
	if !errors.Is(err, errs.ErrBadConfig) || d.TaskID != 0 {
		t.Fatalf("a submit stamped 1e12 on a wall clock: %+v, %v; want ErrBadConfig", d, err)
	}
	if st := svc.Stats(); st.Commits != before.Commits || st.QueueLen != before.QueueLen || st.Arrivals != 5 {
		t.Fatalf("stats %+v after the future submit, %+v before", st, before)
	}
}
