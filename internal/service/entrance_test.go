package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
)

// callLog records the legacy observer callbacks in order.
type callLog []string

func (l *callLog) OnAccept(now float64, t *rt.Task, p *rt.Plan) {
	*l = append(*l, fmt.Sprintf("accept %d at %v on %v est %v", t.ID, now, p.Nodes, p.Est))
}
func (l *callLog) OnReject(now float64, t *rt.Task) {
	*l = append(*l, fmt.Sprintf("reject %d at %v", t.ID, now))
}
func (l *callLog) OnCommit(now float64, p *rt.Plan) {
	*l = append(*l, fmt.Sprintf("commit %d at %v", p.Task.ID, now))
}

// ledger is the part of Stats an outcome is compared on.
type ledger struct {
	Arrivals, Accepts, Rejects, Commits, QueueLen, MaxQueueLen int
	Displaced, LateCommits, DemandRejects                      int
	BusyTime, ReservedIdle, LastRelease, Utilization           float64
}

func ledgerOf(st Stats) ledger {
	return ledger{
		Arrivals: st.Arrivals, Accepts: st.Accepts, Rejects: st.Rejects, Commits: st.Commits,
		QueueLen: st.QueueLen, MaxQueueLen: st.MaxQueueLen,
		Displaced: st.Displaced, LateCommits: st.LateCommits, DemandRejects: st.DemandRejects,
		BusyTime: st.BusyTime, ReservedIdle: st.ReservedIdle, LastRelease: st.LastRelease, Utilization: st.Utilization,
	}
}

// shardSamples renders the registry and returns its per-shard samples,
// series → value.
func shardSamples(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' || !strings.Contains(line, `shard="`) {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// outcome is everything one submission leaves behind.
type outcome struct {
	Decision Decision
	Err      string
	Before   ledger // the state the probe met
	After    ledger
	Events   []Event
	Calls    callLog
	Samples  map[string]float64
}

// TestEveryEntranceSameOutcome: whichever entrance a task takes — Submit or
// a batch of one — it walks the same stamp, sweep, gate, test and finish,
// so the decision, the ledger, the event, the legacy observer's callback
// and the /metrics samples it leaves are the same, and the observer and the
// event stream name the same outcomes in the same order.
func TestEveryEntranceSameOutcome(t *testing.T) {
	type entrance struct {
		name  string
		batch bool
	}
	entrances := []entrance{
		{name: "Submit"},
		{name: "SubmitBatch", batch: true},
	}
	// The state every probe meets, at clock 100 on four nodes with MaxQueue
	// 2: task 1 committed on the whole fleet until t ≈ 10261, task 2 waiting
	// for its first node there.
	cases := []struct {
		name  string
		prep  func(t *testing.T, svc *Service) // more state, before the probe
		probe rt.Task
		check func(t *testing.T, o outcome)
	}{
		{name: "accept", probe: rt.Task{ID: 10, Arrival: 100, Sigma: 50, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if !o.Decision.Accepted || o.After.Accepts != o.Before.Accepts+1 || o.After.QueueLen != 2 || len(o.Decision.Nodes) == 0 {
					t.Fatalf("want an accept into a queue of 2: %+v", o)
				}
			}},
		{name: "infeasible", probe: rt.Task{ID: 10, Arrival: 100, Sigma: 100, RelDeadline: 12691},
			check: func(t *testing.T, o outcome) {
				if o.Decision.Reason != errs.ReasonInfeasible || o.After.DemandRejects != o.Before.DemandRejects {
					t.Fatalf("want a reject by the full test, not the bound: %+v", o)
				}
			}},
		{name: "demand-bound reject", probe: rt.Task{ID: 10, Arrival: 100, Sigma: 100, RelDeadline: 5000},
			check: func(t *testing.T, o outcome) {
				if o.Decision.Reason != errs.ReasonInfeasible || o.After.DemandRejects != o.Before.DemandRejects+1 {
					t.Fatalf("want a reject by the demand bound: %+v", o)
				}
			}},
		{name: "deadline-past", probe: rt.Task{ID: 10, Arrival: 50, Sigma: 50, RelDeadline: 20},
			check: func(t *testing.T, o outcome) {
				if o.Decision.Reason != errs.ReasonDeadlinePast || o.After.Rejects != o.Before.Rejects+1 {
					t.Fatalf("want deadline-past: %+v", o)
				}
			}},
		{name: "busy at MaxQueue",
			prep: func(t *testing.T, svc *Service) {
				if d, err := svc.Submit(context.Background(), rt.Task{ID: 5, Sigma: 50, RelDeadline: 300000}); err != nil || !d.Accepted {
					t.Fatalf("filling the queue: %+v, %v", d, err)
				}
			},
			probe: rt.Task{ID: 10, Arrival: 100, Sigma: 50, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if o.Decision.Reason != errs.ReasonBusy || o.After.QueueLen != 2 {
					t.Fatalf("want busy: %+v", o)
				}
			}},
		{name: "zero Arrival stamped from the clock", probe: rt.Task{ID: 10, Sigma: 50, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if !o.Decision.Accepted || o.Decision.At != 100 || len(o.Events) != 1 || o.Events[0].Task.Arrival != 100 {
					t.Fatalf("want an accept stamped 100: %+v", o)
				}
			}},
		{name: "future Arrival commits the queue first", probe: rt.Task{ID: 10, Arrival: 10300, Sigma: 50, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if !o.Decision.Accepted || o.Decision.At != 10300 || o.After.Commits != o.Before.Commits+1 ||
					len(o.Events) != 2 || o.Events[0].Kind != EventCommit || o.Events[0].Task.ID != 2 || o.Events[1].Kind != EventAccept {
					t.Fatalf("want task 2 committed, then the accept, at 10300: %+v", o)
				}
			}},
		{name: "duplicate id", probe: rt.Task{ID: 2, Arrival: 100, Sigma: 50, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if o.Err == "" || o.After != o.Before || len(o.Events) != 0 {
					t.Fatalf("want a hard error and no trace: %+v", o)
				}
			}},
		{name: "Validate error", probe: rt.Task{ID: 10, Arrival: 100, Sigma: -1, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if o.Err == "" || o.After != o.Before {
					t.Fatalf("want a hard error and no trace: %+v", o)
				}
			}},
		{name: "closed", prep: func(t *testing.T, svc *Service) { svc.Close() },
			probe: rt.Task{ID: 10, Arrival: 100, Sigma: 50, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if !strings.Contains(o.Err, "closed") || o.After != o.Before {
					t.Fatalf("want the closed error: %+v", o)
				}
			}},
		{name: "draining", prep: func(t *testing.T, svc *Service) { svc.SetAccepting(false) },
			probe: rt.Task{ID: 10, Arrival: 100, Sigma: 50, RelDeadline: 300000},
			check: func(t *testing.T, o outcome) {
				if !strings.Contains(o.Err, "draining") || o.After != o.Before {
					t.Fatalf("want the draining error: %+v", o)
				}
			}},
	}

	run := func(t *testing.T, prep func(*testing.T, *Service), probe rt.Task, e entrance) outcome {
		cl, err := cluster.New(4, baseline)
		if err != nil {
			t.Fatal(err)
		}
		clock := NewManualClock(0)
		calls := new(callLog)
		reg := metrics.NewRegistry()
		svc, err := New(Config{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}, Clock: clock,
			MaxQueue: 2, Observer: calls, Metrics: NewMetrics(reg)})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, pre := range []rt.Task{
			{ID: 1, Arrival: 10, Sigma: 400, RelDeadline: 10400},
			{ID: 2, Arrival: 20, Sigma: 100, RelDeadline: 200000},
		} {
			clock.Set(pre.Arrival)
			if d, err := svc.Submit(ctx, pre); err != nil || !d.Accepted {
				t.Fatalf("prelude task %d: %+v, %v", pre.ID, d, err)
			}
		}
		clock.Set(100)
		events, cancel := svc.Subscribe(16)
		defer cancel()
		if prep != nil {
			prep(t, svc)
		}
		drain := func() (evs []Event) {
			for {
				select {
				case ev, ok := <-events:
					if !ok {
						return evs
					}
					evs = append(evs, ev)
				default:
					return evs
				}
			}
		}
		drain()
		*calls = nil
		before := svc.Stats()
		samples := shardSamples(t, reg)

		o := outcome{Before: ledgerOf(before)}
		if e.batch {
			ds, err := svc.SubmitBatch(ctx, []rt.Task{probe})
			if err == nil {
				o.Decision = ds[0]
			} else {
				o.Err = err.Error()
				if len(ds) != 0 {
					t.Fatalf("a failed batch of one returned decisions: %+v", ds)
				}
			}
		} else if o.Decision, err = svc.Submit(ctx, probe); err != nil {
			o.Err = err.Error()
		}
		o.After, o.Events, o.Calls = ledgerOf(svc.Stats()), drain(), *calls
		o.Samples = shardSamples(t, reg)
		for series, v := range samples {
			o.Samples[series] -= v
		}

		// One announcer: the observer heard exactly the accepts, rejects and
		// commits the stream carried, in the same order and at the same times.
		var heard, carried []string
		for _, c := range o.Calls {
			c, _, _ = strings.Cut(c, " on ")
			heard = append(heard, c)
		}
		for _, ev := range o.Events {
			if ev.Kind != EventDisplace {
				carried = append(carried, fmt.Sprintf("%v %d at %v", ev.Kind, ev.Task.ID, ev.Time))
			}
		}
		if !slices.Equal(heard, carried) {
			t.Fatalf("the observer heard %q, the stream carried %q", heard, carried)
		}
		// And /metrics says what Stats says.
		for series, want := range map[string]int{
			`rtdls_submits_total{shard="0"}`: o.After.Arrivals - o.Before.Arrivals,
			`rtdls_accepts_total{shard="0"}`: o.After.Accepts - o.Before.Accepts,
			`rtdls_commits_total{shard="0"}`: o.After.Commits - o.Before.Commits,
			`rtdls_queue_depth{shard="0"}`:   o.After.QueueLen - o.Before.QueueLen,
		} {
			if got := o.Samples[series]; got != float64(want) {
				t.Fatalf("%s moved by %v, Stats by %d", series, got, want)
			}
		}
		if !o.Decision.Accepted && o.Err == "" {
			series := fmt.Sprintf(`rtdls_rejects_total{reason=%q,shard="0"}`, o.Decision.Reason.String())
			if o.Samples[series] != 1 {
				t.Fatalf("%s moved by %v, want 1:\n%v", series, o.Samples[series], o.Samples)
			}
		}
		return o
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref outcome
			for i, e := range entrances {
				got := run(t, tc.prep, tc.probe, e)
				tc.check(t, got)
				if !got.Decision.Accepted && got.Err == "" && (len(got.Events) == 0 || len(got.Calls) == 0) {
					t.Fatalf("%s: a reject with no event or no observer callback: %+v", e.name, got)
				}
				if i == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s and %s differ:\n%+v\n%+v", e.name, entrances[0].name, got, ref)
				}
			}
		})
	}
}

// TestHardPlannerErrorCountsNoArrival: a task the partitioner cannot plan
// at all (user-split asked for more nodes than the cluster has) is a hard
// error and leaves no arrival behind: the scheduler's ledger stays
// Arrivals == Accepts + Rejects. (It used to count the arrival before the
// test ran.)
func TestHardPlannerErrorCountsNoArrival(t *testing.T) {
	svc := newTestService(t, func(c *Config) { c.Partitioner = rt.UserSplit{} })
	ctx := context.Background()
	if d, err := svc.Submit(ctx, rt.Task{ID: 1, Sigma: 100, RelDeadline: 1e6, UserN: 4}); err != nil || !d.Accepted {
		t.Fatalf("plannable task: %+v, %v", d, err)
	}
	_, err := svc.Submit(ctx, rt.Task{ID: 2, Sigma: 100, RelDeadline: 1e6, UserN: 17})
	if err == nil || errors.Is(err, errs.ErrInfeasible) {
		t.Fatalf("UserN > N: err = %v, want a hard error", err)
	}
	ss, st := svc.sched.Stats(), svc.Stats()
	if ss.Arrivals != 1 || ss.Arrivals != ss.Accepts+ss.Rejects {
		t.Fatalf("scheduler ledger %+v", ss)
	}
	if st.Arrivals != 1 || st.Accepts != 1 || st.Rejects != 0 {
		t.Fatalf("service ledger %+v", st)
	}
}
