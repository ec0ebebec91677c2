package pool

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"testing"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// TestConcurrentBatchHardErrorKeepsLedger: one shard's sub-batch stops at a
// malformed task while the other shard decides its whole part. Every task
// a shard decided is booked once in the pool's ledger and returned; only
// the malformed task has no decision.
func TestConcurrentBatchHardErrorKeepsLedger(t *testing.T) {
	p := newPool(t, 2, 4, RoundRobin{})
	defer p.Close()
	tasks := []rt.Task{
		{ID: 1, Sigma: 200, RelDeadline: 12000},
		{ID: 2, Sigma: 200, RelDeadline: 12000},
		{ID: 3, Sigma: -1, RelDeadline: 12000},
		{ID: 4, Sigma: 200, RelDeadline: 12000},
	}
	decs, err := p.SubmitBatch(context.Background(), tasks)
	if !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	var ids []int64
	for _, d := range decs {
		ids = append(ids, d.TaskID)
	}
	if len(decs) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 4 {
		t.Fatalf("decided tasks %v, want [1 2 4]", ids)
	}
	shardAccepts := 0
	for _, st := range p.ShardStats() {
		shardAccepts += st.Accepts
	}
	if st := p.Stats(); st.Accepts != shardAccepts || st.Arrivals != 3 {
		t.Fatalf("pool accepts %d, arrivals %d; shard accepts sum to %d", st.Accepts, st.Arrivals, shardAccepts)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Accepts != st.Commits {
		t.Fatalf("after Drain: accepts %d, commits %d", st.Accepts, st.Commits)
	}
}

// TestBatchIsItsSubmits feeds one seeded overloaded stream through twin 4×8
// pools in 64-task batches: one pool takes each batch with SubmitBatch, the
// other with a loop of Submits in input order. One batch holds a malformed
// task, and shard 1 is drained part-way. Under every placement the twins
// agree on every decision, field for field, on the error, on Stats,
// ShardStats and Spillovers, and on the event stream, event for event.
func TestBatchIsItsSubmits(t *testing.T) {
	const batches, size = 64, 64
	ctx := context.Background()
	for _, place := range []Placement{RoundRobin{}, LeastLoaded{}, PowerOfTwoChoices{Seed: 3}, Spillover{Inner: LeastLoaded{}}} {
		t.Run(place.Name(), func(t *testing.T) {
			batched, looped := newPool(t, 4, 8, place), newPool(t, 4, 8, place)
			defer batched.Close()
			defer looped.Close()
			subB, subL := batched.Subscribe(1<<14), looped.Subscribe(1<<14)
			rng := uint64(11)
			next := func(mod uint64) float64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return float64((rng >> 33) % mod)
			}
			now := 0.0
			tasks := make([]rt.Task, size)
			for b := range batches {
				for i := range tasks {
					now += next(600)
					tasks[i] = rt.Task{ID: int64(b*size + i + 1), Arrival: now, Sigma: 1 + next(800), RelDeadline: 1500 + next(6000)}
				}
				if b == 10 {
					tasks[5].Sigma = -1
				}
				if b == batches/2 {
					for node := 8; node < 16; node++ {
						rb, errB := batched.SetNodeState(node, service.NodeDraining)
						rl, errL := looped.SetNodeState(node, service.NodeDraining)
						if errB != nil || errL != nil || rb != rl {
							t.Fatalf("draining node %d: %+v, %v; the loop's twin %+v, %v", node, rb, errB, rl, errL)
						}
					}
				}
				got, errB := batched.SubmitBatch(ctx, tasks)
				var want []service.Decision
				var errL error
				for i := range tasks {
					d, err := looped.Submit(ctx, tasks[i])
					if err != nil {
						errL = cmp.Or(errL, err)
						continue
					}
					want = append(want, d)
				}
				if !errEqual(errB, errL) {
					t.Fatalf("batch %d: the batch erred %v, the loop %v", b, errB, errL)
				}
				if len(got) != len(want) {
					t.Fatalf("batch %d: %d decisions, the loop made %d", b, len(got), len(want))
				}
				for i := range got {
					if !sameDecision(got[i], want[i]) {
						t.Fatalf("batch %d, decision %d: %+v, the loop decided %+v", b, i, got[i], want[i])
					}
				}
				if sb, sl := batched.Stats(), looped.Stats(); sb != sl {
					t.Fatalf("batch %d: stats %+v, the loop's %+v", b, sb, sl)
				}
				if sb, sl := batched.ShardStats(), looped.ShardStats(); !slices.Equal(sb, sl) {
					t.Fatalf("batch %d: shard stats %+v, the loop's %+v", b, sb, sl)
				}
				if batched.Spillovers() != looped.Spillovers() {
					t.Fatalf("batch %d: %d spillovers, the loop %d", b, batched.Spillovers(), looped.Spillovers())
				}
				if eb, el := pending(subB), pending(subL); !slices.Equal(eb, el) {
					t.Fatalf("batch %d: events %+v, the loop's %+v", b, eb, el)
				}
			}
			if st := batched.Stats(); st.Accepts == 0 || st.Rejects <= st.Accepts {
				t.Fatalf("the stream is not overloaded: %+v", st)
			}
		})
	}
}

// errEqual reports whether two errors are both nil or read the same.
func errEqual(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// pending takes every event the subscription holds now.
func pending(sub *service.Subscription) []service.Event {
	var out []service.Event
	for {
		select {
		case ev := <-sub.C():
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestBatchAllocatesItsDecisions: a 64-task batch on a warm 4×8 Spillover
// pool allocates the slice of its decisions and, amortised, nothing else.
func TestBatchAllocatesItsDecisions(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the count holds only on production builds")
	}
	p := newPool(t, 4, 8, Spillover{})
	defer p.Close()
	ctx := context.Background()
	tasks := make([]rt.Task, 64)
	id, now := int64(0), 0.0
	batch := func() {
		for i := range tasks {
			id++
			now += 20
			tasks[i] = rt.Task{ID: id, Arrival: now, Sigma: 1 + float64((id*37)%800), RelDeadline: 1500 + float64((id*91)%6000)}
		}
		if decs, err := p.SubmitBatch(ctx, tasks); err != nil || len(decs) != len(tasks) {
			t.Fatalf("%d decisions, %v", len(decs), err)
		}
	}
	for range 50 {
		batch()
	}
	if a := testing.AllocsPerRun(200, batch); a > 2 {
		t.Fatalf("a 64-task batch allocates %v objects, want at most 2", a)
	}
}
