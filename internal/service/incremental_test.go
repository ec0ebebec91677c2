package service

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
)

// TestPlanCountersFollowReplanning: "tasks replanned per submit" is
// answerable from Stats and /metrics alone. Behind a busy fleet a queue of
// k tasks builds up; every arrival ordered after them computes one plan and
// carries k over, on the speculative path and on the serialized one, and
// the per-shard counters land on the same totals as Stats.
func TestPlanCountersFollowReplanning(t *testing.T) {
	for _, speculate := range []bool{true, false} {
		reg := metrics.NewRegistry()
		clock := NewManualClock(0)
		svc := newTestService(t, func(c *Config) {
			c.Metrics = NewMetrics(reg)
			c.Clock = clock
			c.Shard = 3
		})
		svc.SetSpeculation(speculate)
		if speculate {
			speculateAlone(svc)
		}
		ctx := context.Background()
		// The first task takes the whole fleet for a long time; the rest wait.
		tasks := []rt.Task{{ID: 1, Sigma: 4000, RelDeadline: 28000}}
		for i := 2; i <= 9; i++ {
			tasks = append(tasks, rt.Task{ID: int64(i), Sigma: 100, RelDeadline: 200000 + 100*float64(i)})
		}
		for i, task := range tasks {
			clock.Set(float64(10 * (i + 1)))
			if d, err := svc.Submit(ctx, task); err != nil || !d.Accepted {
				t.Fatalf("speculate=%v task %d: %+v, %v", speculate, task.ID, d, err)
			}
		}
		// Task 1 starts at once and commits on the next sweep; tasks 2..9 each
		// find every earlier waiting task ordered before them.
		st := svc.Stats()
		if st.PlansComputed != 9 || st.PlansReused != 0+0+1+2+3+4+5+6+7 {
			t.Fatalf("speculate=%v: computed %d reused %d, want 9 and 28", speculate, st.PlansComputed, st.PlansReused)
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
				t.Fatalf("speculate=%v: exposition missing %q:\n%s", speculate, want, b.String())
			}
		}
	}
}

// TestDemandRejectsAreCounted: "how many rejects did the demand bound
// decide" is answerable from Stats and /metrics alone, on the speculative
// path and on the serialized one. Behind a busy fleet the queue fills with
// tasks due at the same instant until one more is one too many; every
// arrival after that is a reject the bound decides with no plan at all.
func TestDemandRejectsAreCounted(t *testing.T) {
	for _, speculate := range []bool{true, false} {
		reg := metrics.NewRegistry()
		clock := NewManualClock(0)
		svc := newTestService(t, func(c *Config) {
			c.Metrics = NewMetrics(reg)
			c.Clock = clock
			c.Shard = 3
		})
		svc.SetSpeculation(speculate)
		if speculate {
			speculateAlone(svc)
		}
		ctx := context.Background()
		if d, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 4000, RelDeadline: 28000}); err != nil || !d.Accepted {
			t.Fatalf("speculate=%v: the task that takes the fleet: %+v, %v", speculate, d, err)
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
			t.Fatalf("speculate=%v: %d rejects, %d of them by the demand bound", speculate, rejects, st.DemandRejects)
		}
		// Each of them cost no plan: the accepts' own and the kept ones only.
		if st.PlansComputed > st.Accepts+rejects-st.DemandRejects {
			t.Fatalf("speculate=%v: %d plans computed for %d accepts and %d rejects the bound left to the full test",
				speculate, st.PlansComputed, st.Accepts, rejects-st.DemandRejects)
		}
		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`rtdls_admission_demand_rejects_total{shard="3"} %d`, st.DemandRejects); !strings.Contains(b.String(), want) {
			t.Fatalf("speculate=%v: exposition missing %q:\n%s", speculate, want, b.String())
		}
	}
}

// TestSpeculationContextIsCarried: a submitter that speculates keeps
// resuming from the one context its previous install carried over — the
// stack of parked contexts never grows past it — whether it submits singly
// or in batches.
func TestSpeculationContextIsCarried(t *testing.T) {
	cl, err := cluster.New(64, baseline)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewManualClock(0)
	svc, err := New(Config{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	speculateAlone(svc)
	ctx := context.Background()
	var carried *rt.SpecContext
	for i := 1; i <= 200; i++ {
		clock.Advance(300)
		task := rt.Task{ID: int64(i), Sigma: 150, RelDeadline: 5200}
		if i%10 == 0 {
			if _, err := svc.SubmitBatch(ctx, []rt.Task{task}); err != nil {
				t.Fatal(err)
			}
		} else if _, err := svc.Submit(ctx, task); err != nil {
			t.Fatal(err)
		}
		if len(svc.specFree) != 1 {
			t.Fatalf("submit %d: %d parked contexts, want 1", i, len(svc.specFree))
		}
		if carried == nil {
			carried = svc.specFree[0]
		} else if svc.specFree[0] != carried {
			t.Fatalf("submit %d resumed from a different context", i)
		}
	}
	if st := svc.Stats(); st.Speculative != 200 || st.Conflicts != 0 {
		t.Fatalf("stats %+v: want 200 speculative installs, no conflicts", st)
	}
}

// closingPartitioner stops the service accepting the first time it plans
// the task with the trigger id — i.e. between a speculation's two phases.
type closingPartitioner struct {
	rt.IITDLT
	svc     **Service
	trigger int64
	fired   *bool
}

func (p closingPartitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	if t.ID == p.trigger && !*p.fired {
		*p.fired = true
		(*p.svc).SetAccepting(false)
	}
	return p.IITDLT.Plan(ctx, t)
}

// TestRefusedSpeculationLeavesNoPhantom: a speculation that computed an
// accept but found the service draining at install time is refused with the
// epoch unmoved; the schedule it computed must not come back through its
// parked context once the service accepts again.
func TestRefusedSpeculationLeavesNoPhantom(t *testing.T) {
	for _, batch := range []bool{false, true} {
		clock := NewManualClock(0)
		var svc *Service
		svc = newTestService(t, func(c *Config) {
			c.Clock = clock
			c.Partitioner = closingPartitioner{svc: &svc, trigger: 3, fired: new(bool)}
		})
		speculateAlone(svc)
		ctx := context.Background()
		submit := func(task rt.Task) (Decision, error) {
			if !batch {
				return svc.Submit(ctx, task)
			}
			ds, err := svc.SubmitBatch(ctx, []rt.Task{task})
			if err != nil {
				return Decision{}, err
			}
			return ds[0], nil
		}
		// Task 1 takes the whole fleet for a long time; the rest wait.
		clock.Set(10)
		if d, err := submit(rt.Task{ID: 1, Sigma: 4000, RelDeadline: 28000}); err != nil || !d.Accepted {
			t.Fatalf("batch=%v task 1: %+v, %v", batch, d, err)
		}
		clock.Set(20)
		if d, err := submit(rt.Task{ID: 2, Sigma: 100, RelDeadline: 200000}); err != nil || !d.Accepted {
			t.Fatalf("batch=%v task 2: %+v, %v", batch, d, err)
		}
		clock.Set(30)
		if d, err := submit(rt.Task{ID: 3, Sigma: 100, RelDeadline: 200100}); err == nil {
			t.Fatalf("batch=%v task 3 decided while draining: %+v", batch, d)
		}
		svc.SetAccepting(true)
		clock.Set(40)
		if d, err := submit(rt.Task{ID: 4, Sigma: 100, RelDeadline: 200200}); err != nil || !d.Accepted {
			t.Fatalf("batch=%v task 4: %+v, %v", batch, d, err)
		}
		if st := svc.Stats(); st.Accepts != 3 || st.QueueLen != 2 {
			t.Fatalf("batch=%v: %d accepts, %d waiting after the refused task, want 3 and 2", batch, st.Accepts, st.QueueLen)
		}
		if pl := svc.sched.PlanFor(3); pl != nil {
			t.Fatalf("batch=%v: refused task 3 holds a plan: %+v", batch, pl)
		}
	}
}
