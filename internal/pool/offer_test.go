package pool

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// offerRig is a 3×4-node pool on a manual clock whose every shard-level
// decision is read back from the merged event stream, one submission or
// fleet operation at a time.
type offerRig struct {
	t     *testing.T
	p     *Pool
	clock *service.ManualClock
	reg   *metrics.Registry
	sub   *service.Subscription

	next      int64 // next task id
	submitted int
	// What the stream says happened, to hold the pool's counters against.
	accepts, rejects, spills, readmits int
	shardAccepts, shardRejects         [3]int
}

func newOfferRig(t *testing.T, place Placement) *offerRig {
	t.Helper()
	r := &offerRig{t: t, clock: service.NewManualClock(0), reg: metrics.NewRegistry(), next: 1}
	shards := make([]ShardConfig, 3)
	for i := range shards {
		cl, err := cluster.New(4, baseline)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}, MaxQueue: 8}
	}
	shards[2].MaxQueue = 1 // a second waiting task is refused as busy, which is not final
	p, err := New(Config{Shards: shards, Placement: place, Clock: r.clock, Metrics: service.NewMetrics(r.reg)})
	if err != nil {
		t.Fatal(err)
	}
	r.p = p
	r.sub = p.Subscribe(1024)
	t.Cleanup(func() { r.sub.Cancel(); p.Close() })
	return r
}

// tally is what the stream showed of one task: shard-level outcomes.
type tally struct{ accepts, rejects int }

// seen drains the stream: the shard-level accepts and rejects since the
// last call, per task, and booked per shard.
func (r *offerRig) seen() map[int64]tally {
	out := make(map[int64]tally)
	for {
		select {
		case ev := <-r.sub.C():
			tl := out[ev.Task.ID]
			switch ev.Kind {
			case service.EventAccept:
				tl.accepts++
				r.shardAccepts[ev.Shard]++
			case service.EventReject:
				tl.rejects++
				r.shardRejects[ev.Shard]++
			}
			out[ev.Task.ID] = tl
		default:
			return out
		}
	}
}

// task makes the next task: σ = 200 needs two nodes for about 10150 time
// units, so a 4-node shard runs two at once; the deadline says how long the
// task can wait for them.
func (r *offerRig) task(deadline float64) rt.Task {
	r.clock.Advance(10)
	r.next++
	return rt.Task{ID: r.next - 1, Sigma: 200, RelDeadline: deadline}
}

// booked checks one pool-level decision against what the stream showed of
// it and adds it to the expected counters.
func (r *offerRig) booked(d service.Decision, task rt.Task, tl tally) {
	r.t.Helper()
	r.submitted++
	if d.TaskID != task.ID || tl.accepts > 1 || d.Accepted != (tl.accepts == 1) || tl.accepts+tl.rejects == 0 {
		r.t.Fatalf("task %d: decision %+v after %+v", task.ID, d, tl)
	}
	if !d.Accepted {
		r.rejects++
		return
	}
	r.accepts++
	if tl.rejects > 0 {
		r.spills++
	}
}

func (r *offerRig) submit(deadline float64) service.Decision {
	r.t.Helper()
	task := r.task(deadline)
	d, err := r.p.Submit(context.Background(), task)
	if err != nil {
		r.t.Fatalf("task %d: %v", task.ID, err)
	}
	r.booked(d, task, r.seen()[task.ID])
	return d
}

// fail takes a node down; whatever the stream then shows is readmission.
func (r *offerRig) fail(node int) service.FleetResult {
	r.t.Helper()
	res, err := r.p.SetNodeState(node, service.NodeDown)
	if err != nil {
		r.t.Fatal(err)
	}
	a := 0
	for _, tl := range r.seen() {
		a += tl.accepts
	}
	if a != res.Readmitted {
		r.t.Fatalf("SetNodeState(%d, NodeDown) reports %d readmitted, the stream shows %d accepts", node, res.Readmitted, a)
	}
	r.readmits += a
	return res
}

// burn moves the round-robin pointer on by one with a task whose deadline
// has passed: that is final at the first shard asked, spillover or not.
func (r *offerRig) burn() {
	r.t.Helper()
	r.clock.Advance(10)
	r.next++
	task := rt.Task{ID: r.next - 1, Arrival: 1, Sigma: 200, RelDeadline: 1}
	d, err := r.p.Submit(context.Background(), task)
	if err != nil {
		r.t.Fatal(err)
	}
	tl := r.seen()[task.ID]
	if tl != (tally{rejects: 1}) {
		r.t.Fatalf("a task past its deadline: %+v", tl)
	}
	r.booked(d, task, tl)
}

// TestOfferServesEveryCaller drives the pool's one offer loop through its
// four callers — Submit's spillover, the dead-pick fall-through under
// churn, the batch and the readmission of displaced tasks — under
// a single-choice and a spillover placement, and holds the pool's counters
// and the per-shard ledgers against the event stream.
func TestOfferServesEveryCaller(t *testing.T) {
	const tight, medium, patient = 12000, 24000, 90000
	for _, place := range []Placement{RoundRobin{}, Spillover{Inner: RoundRobin{}}} {
		t.Run(place.Name(), func(t *testing.T) {
			r := newOfferRig(t, place)
			spilling := place.Name() != RoundRobin{}.Name()

			// Two tight tasks per shard keep every node busy until t ≈ 10150.
			for i := 0; i < 6; i++ {
				if d := r.submit(tight); !d.Accepted || d.Shard != i%3 {
					t.Fatalf("filling: %+v", d)
				}
			}
			// Shard 0 also queues two medium tasks for the two node pairs
			// that free up then; a third cannot wait for the round after.
			for i := 0; i < 2; i++ {
				if d := r.submit(medium); !d.Accepted || d.Shard != 0 {
					t.Fatalf("queueing on shard 0: %+v", d)
				}
				r.burn()
				r.burn()
			}
			// Spillover: shard 0 refuses it, shard 1 has the room.
			if d := r.submit(medium); d.Accepted != spilling || (spilling && d.Shard != 1) {
				t.Fatalf("a medium task picked for the full shard 0: %+v", d)
			}
			if want := map[bool]int{true: 1}[spilling]; r.p.Spillovers() != want {
				t.Fatalf("%d spillovers, want %d", r.p.Spillovers(), want)
			}
			r.burn()
			r.burn()

			// Readmission: shard 0 loses three of four nodes, its two waiting
			// tasks need two each, and shards 1 and 2 take them in.
			displaced, readmitted := 0, 0
			for node := 0; node < 3; node++ {
				res := r.fail(node)
				displaced += res.Displaced
				readmitted += res.Readmitted
			}
			if displaced != 2 || readmitted != 2 {
				t.Fatalf("%d displaced, %d readmitted, want 2 and 2", displaced, readmitted)
			}

			// Dead pick: with its last node down shard 0 is dead, and the
			// next submission still picks it first.
			r.fail(3)
			if d := r.submit(patient); !d.Accepted || d.Shard == 0 {
				t.Fatalf("a patient task picked for the dead shard 0: %+v", d)
			}
			r.burn()
			r.burn()

			// Batch: a dead pick, picks that accept and picks that
			// refuse, decided in input order.
			deadlines := []float64{patient, tight, patient, medium, patient, medium, patient}
			tasks := make([]rt.Task, len(deadlines))
			for i, d := range deadlines {
				tasks[i] = r.task(d)
			}
			ds, err := r.p.SubmitBatch(context.Background(), tasks)
			if err != nil || len(ds) != len(tasks) {
				t.Fatalf("batch: %d decisions, %v", len(ds), err)
			}
			before, stream := r.spills, r.seen()
			for i, d := range ds {
				if d.Shard == 0 {
					t.Fatalf("batch decision %d on the dead shard: %+v", i, d)
				}
				r.booked(d, tasks[i], stream[tasks[i].ID])
			}
			if spilling && r.spills == before {
				t.Fatal("no task of the batch spilled over")
			}

			if err := r.p.Drain(); err != nil {
				t.Fatal(err)
			}

			// The pool's counters are the stream's.
			st := r.p.Stats()
			if st.Arrivals != r.submitted || st.Accepts != r.accepts || st.Rejects != r.rejects ||
				r.p.Spillovers() != r.spills || st.Readmitted != r.readmits {
				t.Fatalf("pool says %d arrivals, %d accepts, %d rejects, %d spillovers, %d readmitted; the stream %d, %d, %d, %d, %d",
					st.Arrivals, st.Accepts, st.Rejects, r.p.Spillovers(), st.Readmitted,
					r.submitted, r.accepts, r.rejects, r.spills, r.readmits)
			}
			// And the shards' ledgers add up to them.
			sumAccepts, sumCommits, sumDisplaced := 0, 0, 0
			for i, ss := range r.p.ShardStats() {
				if ss.Accepts != r.shardAccepts[i] || ss.Rejects != r.shardRejects[i] || ss.Arrivals != ss.Accepts+ss.Rejects {
					t.Fatalf("shard %d says %d accepts, %d rejects of %d arrivals; the stream %d and %d",
						i, ss.Accepts, ss.Rejects, ss.Arrivals, r.shardAccepts[i], r.shardRejects[i])
				}
				sumAccepts += ss.Accepts
				sumCommits += ss.Commits
				sumDisplaced += ss.Displaced
			}
			if sumAccepts != st.Accepts+st.Readmitted || sumAccepts != sumCommits+sumDisplaced ||
				st.Commits != sumCommits || st.Displaced != sumDisplaced || st.QueueLen != 0 {
				t.Fatalf("shards: %d accepts, %d commits, %d displaced; pool: %+v", sumAccepts, sumCommits, sumDisplaced, st)
			}
			checkShardFamilies(t, r.p, r.reg)
		})
	}
}

// shardFamilies is the per-shard part of the /metrics contract that
// internal/load/scrape.go and scripts/wire_smoke.sh parse: family → type,
// label keys, and the Stats field each series is read from, given the value
// of its second label if it has one.
var shardFamilies = map[string]struct {
	typ    string
	labels string
	value  func(st service.Stats, label string) float64
}{
	"rtdls_submits_total":                  {"counter", "shard", func(st service.Stats, _ string) float64 { return float64(st.Arrivals) }},
	"rtdls_accepts_total":                  {"counter", "shard", func(st service.Stats, _ string) float64 { return float64(st.Accepts) }},
	"rtdls_commits_total":                  {"counter", "shard", func(st service.Stats, _ string) float64 { return float64(st.Commits) }},
	"rtdls_rejects_total":                  {"counter", "reason,shard", nil}, // summed over reason below
	"rtdls_queue_depth":                    {"gauge", "shard", func(st service.Stats, _ string) float64 { return float64(st.QueueLen) }},
	"rtdls_queue_depth_max":                {"gauge", "shard", func(st service.Stats, _ string) float64 { return float64(st.MaxQueueLen) }},
	"rtdls_utilization":                    {"gauge", "shard", func(st service.Stats, _ string) float64 { return st.Utilization }},
	"rtdls_busy_time_seconds":              {"gauge", "shard", func(st service.Stats, _ string) float64 { return st.BusyTime }},
	"rtdls_displacements_total":            {"counter", "shard", func(st service.Stats, _ string) float64 { return float64(st.Displaced) }},
	"rtdls_admission_plans_computed_total": {"counter", "shard", func(st service.Stats, _ string) float64 { return float64(st.PlansComputed) }},
	"rtdls_admission_plans_reused_total":   {"counter", "shard", func(st service.Stats, _ string) float64 { return float64(st.PlansReused) }},
	"rtdls_admission_demand_rejects_total": {"counter", "shard", func(st service.Stats, _ string) float64 { return float64(st.DemandRejects) }},
	"rtdls_fleet_nodes": {"gauge", "shard,state", func(st service.Stats, state string) float64 {
		return float64(map[string]int{"up": st.NodesUp, "draining": st.NodesDraining, "down": st.NodesDown}[state])
	}},
}

// checkShardFamilies renders the registry at quiescence and checks that
// the families with a shard label are exactly shardFamilies, type and label
// keys included, and that every series equals the Stats field it mirrors.
func checkShardFamilies(t *testing.T, p *Pool, reg *metrics.Registry) {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	stats := p.ShardStats()
	types := make(map[string]string)
	seen := make(map[string]int)
	rejects := make([]float64, len(stats))
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if line == "" || line[0] == '#' || !strings.Contains(line, `shard="`) {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		name, body, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		got, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		labels := make(map[string]string)
		var keys []string
		for _, kv := range strings.Split(body, ",") {
			k, v, _ := strings.Cut(kv, "=")
			labels[k] = strings.Trim(v, `"`)
			keys = append(keys, k)
		}
		sort.Strings(keys)
		want, ok := shardFamilies[name]
		if !ok || types[name] != want.typ || strings.Join(keys, ",") != want.labels {
			t.Fatalf("series %s: type %q, labels %v; the contract says %+v (known: %v)", series, types[name], keys, want, ok)
		}
		seen[name]++
		shard, err := strconv.Atoi(labels["shard"])
		if err != nil || shard < 0 || shard >= len(stats) {
			t.Fatalf("series %s: shard label", series)
		}
		if name == "rtdls_rejects_total" {
			if r := labels["reason"]; r != "infeasible" && r != "deadline-past" && r != "busy" {
				t.Fatalf("series %s: reason token", series)
			}
			rejects[shard] += got
			continue
		}
		other := labels["state"]
		if w := want.value(stats[shard], other); got != w {
			t.Fatalf("%s = %v, Stats says %v", series, got, w)
		}
	}
	for name, fam := range shardFamilies {
		want := len(stats)
		if fam.labels != "shard" {
			want *= 3 // three reasons, three node states
		}
		if seen[name] != want {
			t.Fatalf("family %s has %d series, want %d", name, seen[name], want)
		}
	}
	for i, st := range stats {
		if rejects[i] != float64(st.Rejects) {
			t.Fatalf("shard %d: rejects by reason sum to %v, Stats says %d", i, rejects[i], st.Rejects)
		}
	}
	for _, name := range []string{"rtdls_spillovers_total", "rtdls_events_dropped_total"} {
		if types[name] != "counter" {
			t.Fatalf("pool family %s: type %q", name, types[name])
		}
	}
	for _, name := range []string{"rtdls_admission_stage_seconds", "rtdls_readmission_seconds"} {
		if types[name] != "histogram" {
			t.Fatalf("family %s: type %q", name, types[name])
		}
	}
	if want := fmt.Sprintf("rtdls_spillovers_total %d\n", p.Spillovers()); !strings.Contains(b.String(), want) {
		t.Fatalf("exposition lacks %q", want)
	}
}
