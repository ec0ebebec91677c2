package pool

import (
	"context"
	"errors"
	"testing"

	"rtdls/internal/errs"
	"rtdls/internal/rt"
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
