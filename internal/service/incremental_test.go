package service

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rtdls/internal/metrics"
	"rtdls/internal/rt"
)

// TestPlanCountersFollowReplanning: "tasks replanned per submit" is
// answerable from Stats and /metrics alone. Behind a busy fleet a queue of
// k tasks builds up; every arrival ordered after them computes one plan and
// carries k over, and the per-shard counters land on the same totals as
// Stats.
func TestPlanCountersFollowReplanning(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := NewManualClock(0)
	svc := newTestService(t, func(c *Config) {
		c.Metrics = NewMetrics(reg)
		c.Clock = clock
		c.Shard = 3
	})
	ctx := context.Background()
	// The first task takes the whole fleet for a long time; the rest wait.
	tasks := []rt.Task{{ID: 1, Sigma: 4000, RelDeadline: 28000}}
	for i := 2; i <= 9; i++ {
		tasks = append(tasks, rt.Task{ID: int64(i), Sigma: 100, RelDeadline: 200000 + 100*float64(i)})
	}
	for i, task := range tasks {
		clock.Set(float64(10 * (i + 1)))
		if d, err := svc.Submit(ctx, task); err != nil || !d.Accepted {
			t.Fatalf("task %d: %+v, %v", task.ID, d, err)
		}
	}
	// Task 1 starts at once and commits on the next sweep; tasks 2..9 each
	// find every earlier waiting task ordered before them.
	st := svc.Stats()
	if st.PlansComputed != 9 || st.PlansReused != 0+0+1+2+3+4+5+6+7 {
		t.Fatalf("computed %d reused %d, want 9 and 28", st.PlansComputed, st.PlansReused)
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`rtdls_admission_plans_computed_total{shard="3"} %d`, st.PlansComputed),
		fmt.Sprintf(`rtdls_admission_plans_reused_total{shard="3"} %d`, st.PlansReused),
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestDemandRejectsAreCounted: "how many rejects did the demand bound
// decide" is answerable from Stats and /metrics alone. Behind a busy fleet
// the queue fills with tasks due at the same instant until one more is one
// too many; every arrival after that is a reject the bound decides with no
// plan at all.
func TestDemandRejectsAreCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := NewManualClock(0)
	svc := newTestService(t, func(c *Config) {
		c.Metrics = NewMetrics(reg)
		c.Clock = clock
		c.Shard = 3
	})
	ctx := context.Background()
	if d, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 4000, RelDeadline: 28000}); err != nil || !d.Accepted {
		t.Fatalf("the task that takes the fleet: %+v, %v", d, err)
	}
	clock.Set(10)
	rejects := 0
	for id := int64(2); id <= 60; id++ {
		d, err := svc.Submit(ctx, rt.Task{ID: id, Sigma: 100, RelDeadline: 40000})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Accepted {
			rejects++
		}
	}
	st := svc.Stats()
	if rejects < 20 || st.DemandRejects == 0 || st.DemandRejects > rejects {
		t.Fatalf("%d rejects, %d of them by the demand bound", rejects, st.DemandRejects)
	}
	// Each of them cost no plan: the accepts' own and the kept ones only.
	if st.PlansComputed > st.Accepts+rejects-st.DemandRejects {
		t.Fatalf("%d plans computed for %d accepts and %d rejects the bound left to the full test",
			st.PlansComputed, st.Accepts, rejects-st.DemandRejects)
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`rtdls_admission_demand_rejects_total{shard="3"} %d`, st.DemandRejects); !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}
