package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// countingCtx reports Canceled once Err has been consulted `allow` times —
// it models a client that walks away partway through a batch.
type countingCtx struct {
	context.Context
	allow int32
	calls atomic.Int32
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.allow {
		return context.Canceled
	}
	return nil
}

func TestSubmitBatchCancelledMidBatch(t *testing.T) {
	svc := newTestService(t)
	ctx := &countingCtx{Context: context.Background(), allow: 2}
	tasks := []rt.Task{
		{ID: 1, Sigma: 200, RelDeadline: 1e6},
		{ID: 2, Sigma: 200, RelDeadline: 1e6},
		{ID: 3, Sigma: 200, RelDeadline: 1e6},
		{ID: 4, Sigma: 200, RelDeadline: 1e6},
	}
	decs, err := svc.SubmitBatch(ctx, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The first two tasks were considered before the cancellation tripped;
	// the tail was never offered to the scheduler.
	if len(decs) != 2 {
		t.Fatalf("decisions = %d, want 2", len(decs))
	}
	if st := svc.Stats(); st.Arrivals != 2 {
		t.Fatalf("arrivals = %d, want 2", st.Arrivals)
	}
	if errs.Code(err) != errs.CodeCancelled {
		t.Fatalf("wire code = %d, want %d", errs.Code(err), errs.CodeCancelled)
	}
}

func TestSubmitDeadlineExpired(t *testing.T) {
	svc := newTestService(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 200, RelDeadline: 2800})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st := svc.Stats(); st.Arrivals != 0 {
		t.Fatalf("expired submit reached the scheduler: %+v", st)
	}
	if errs.Code(err) != errs.CodeCancelled {
		t.Fatalf("wire code = %d, want %d", errs.Code(err), errs.CodeCancelled)
	}
}

func TestSetAcceptingGate(t *testing.T) {
	svc := newTestService(t)
	ctx := context.Background()
	svc.SetAccepting(false)
	_, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 200, RelDeadline: 2800})
	if !errors.Is(err, errs.ErrClusterBusy) {
		t.Fatalf("gated submit err = %v, want ErrClusterBusy", err)
	}
	if errs.Code(err) != errs.CodeBusy {
		t.Fatalf("wire code = %d, want %d", errs.Code(err), errs.CodeBusy)
	}
	// The gate is reversible (unlike Close).
	svc.SetAccepting(true)
	if dec, err := svc.Submit(ctx, rt.Task{ID: 2, Sigma: 200, RelDeadline: 2800}); err != nil || !dec.Accepted {
		t.Fatalf("reopened submit: dec=%+v err=%v", dec, err)
	}
}

// TestDrainRacesConcurrentSubmits closes the admission gate and drains
// while submitters hammer the service: no accepted task may be lost, and
// the queue must be empty afterwards. Run with -race this doubles as a
// locking check on the gate/drain path.
func TestDrainRacesConcurrentSubmits(t *testing.T) {
	svc := newTestService(t)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i + 1)
				_, err := svc.Submit(context.Background(), rt.Task{ID: id, Sigma: 150, RelDeadline: 1e6})
				if err != nil && !errors.Is(err, errs.ErrClusterBusy) {
					t.Errorf("submit %d: unexpected error %v", id, err)
					return
				}
			}
		}(w)
	}
	close(start)
	// Slam the gate shut partway through the barrage, then drain.
	svc.SetAccepting(false)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Submits that slipped in before the gate may still be waiting — they
	// arrived after the drain pass. Drain once more now that the barrage
	// is over; the invariant is that nothing accepted is ever dropped.
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Commits != st.Accepts || st.QueueLen != 0 {
		t.Fatalf("accepted work lost: %+v", st)
	}
}

func TestSubscriptionDroppedCount(t *testing.T) {
	svc := newTestService(t)
	sub := svc.Subscribe(1)
	defer sub.Cancel()
	ctx := context.Background()
	// Three accepts publish at least three events into a 1-slot buffer
	// nobody is reading: everything past the first is dropped and counted.
	for i := 1; i <= 3; i++ {
		if dec, err := svc.Submit(ctx, rt.Task{ID: int64(i), Sigma: 150, RelDeadline: 1e6}); err != nil || !dec.Accepted {
			t.Fatalf("submit %d: dec=%+v err=%v", i, dec, err)
		}
	}
	if got := sub.Dropped(); got < 2 {
		t.Fatalf("Dropped() = %d, want >= 2", got)
	}
	if st := svc.Stats(); st.EventsDropped != sub.Dropped() {
		t.Fatalf("aggregate EventsDropped %d != subscriber %d", st.EventsDropped, sub.Dropped())
	}
	// The one buffered event is still deliverable.
	select {
	case ev, ok := <-sub.C():
		if !ok || ev.Kind != EventAccept {
			t.Fatalf("first event = %+v ok=%v", ev, ok)
		}
	default:
		t.Fatal("buffered event missing")
	}
}

func TestSubscriptionEndsOnClose(t *testing.T) {
	svc := newTestService(t)
	sub := svc.Subscribe(4)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after Close")
	}
	// Cancel after close is a harmless no-op.
	sub.Cancel()
}
