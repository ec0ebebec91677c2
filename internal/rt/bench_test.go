package rt

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rtdls/internal/cluster"
)

// benchSubmit measures steady-state schedulability-test cost: a rolling
// window of arrivals against a 16-node cluster.
func benchSubmit(b *testing.B, part Partitioner, pol Policy) {
	cl, err := cluster.New(16, baseline)
	if err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(cl, pol, part)
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := &Task{
			ID:          int64(i),
			Arrival:     now,
			Sigma:       100 + float64(i%7)*50,
			RelDeadline: 3000 + float64(i%5)*500,
			UserN:       4 + i%12,
		}
		if _, err := s.Submit(task, now); err != nil {
			b.Fatal(err)
		}
		if _, err := s.CommitDue(now); err != nil {
			b.Fatal(err)
		}
		now += 400
	}
}

func BenchmarkSubmitIITDLT(b *testing.B)    { benchSubmit(b, IITDLT{}, EDF) }
func BenchmarkSubmitOPRMN(b *testing.B)     { benchSubmit(b, OPR{}, EDF) }
func BenchmarkSubmitUserSplit(b *testing.B) { benchSubmit(b, UserSplit{}, EDF) }
func BenchmarkSubmitFIFO(b *testing.B)      { benchSubmit(b, IITDLT{}, FIFO) }

// submitScaleSizes is the cluster-size sweep shared by the index-scaling
// benchmarks below. `make bench-gate` holds the nodes=10000 vs nodes=100
// ns/op ratio (TestGateIndexGrowth), so the sub-linear per-submit contract
// of the availability index is enforced without machine-dependent absolute
// thresholds.
var submitScaleSizes = []int{100, 1000, 10000}

// BenchmarkSubmit measures the steady-state accept path as the fleet
// grows: every task is feasible, commits on the next sweep, and touches
// only its ñ_min nodes, so per-submit cost is dominated by the
// availability-view maintenance — one rollback of the previous test's
// tentative assignments plus k retimings of the order index. Before the
// index this path re-sorted all n nodes per submission.
func BenchmarkSubmit(b *testing.B) {
	for _, n := range submitScaleSizes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) { benchSubmitNodes(b, n) })
	}
}

func benchSubmitNodes(b *testing.B, n int) {
	cl, err := cluster.New(n, baseline)
	if err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(cl, EDF, IITDLT{})
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := &Task{
			ID:          int64(i + 1),
			Arrival:     now,
			Sigma:       150 + float64(i%8)*12.5,
			RelDeadline: 5200,
		}
		ok, err := s.Submit(task, now)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatalf("steady-state task %d rejected", task.ID)
		}
		if _, err := s.CommitDue(now); err != nil {
			b.Fatal(err)
		}
		now += 2600
	}
}

// BenchmarkSubmitFastReject measures the hopeless-task path: the whole
// fleet is committed busy far beyond every deadline, so each submission
// resolves without calling the partitioner — since the demand bound at its
// clear-pass, whose walk over the availability index ends at the first key,
// before it at the ñ_min fast-reject's order-statistic probe. The cost should
// be flat in the fleet size.
func BenchmarkSubmitFastReject(b *testing.B) {
	for _, n := range submitScaleSizes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) { benchSubmitFastReject(b, n) })
	}
}

func benchSubmitFastReject(b *testing.B, n int) {
	cl, err := cluster.New(n, baseline)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, n)
	starts := make([]float64, n)
	release := make([]float64, n)
	for i := range ids {
		ids[i] = i
		release[i] = 1e9
	}
	if err := cl.Commit(ids, starts, release, 0); err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(cl, EDF, IITDLT{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := &Task{ID: int64(i + 1), Arrival: 0, Sigma: 200, RelDeadline: 5000}
		ok, err := s.Submit(task, 0)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			b.Fatalf("task %d admitted on a saturated fleet", task.ID)
		}
	}
}

// BenchmarkSubmitQueued measures one admission test against a waiting
// queue held at a fixed depth, for five kinds of arrival the wire sees.
// Except in the tailmiss mix, the 16 nodes free up one slot (one
// single-node task) apart and a queue of `queue` single-node tasks with
// loose deadlines is planned onto the coming slots; every iteration of the
// accepting mixes advances time by one slot, commits the task at the head
// and submits one arrival, so the depth holds.
//
//   - late: the arrival's deadline is the latest — EDF orders it last, every
//     waiting task keeps its plan, one plan is computed.
//   - uniform: the deadline falls uniformly inside the queue's range — the
//     tasks ordered after the arrival are planned again behind it.
//   - reject: ordered last and passing the ñ_min fast-reject, but too big to
//     finish in time on all 16 nodes — by 0.02 %, of which 8 % is link time
//     the demand bound does not count. At queue=0, 8 and 32 the arrival's
//     own node search fails (one Plan call, no plan); at queue=128 the
//     waiting tasks' own demand closes the gap and the bound decides it
//     after one pass over the queue's σ, with no Plan call.
//   - saturated: the same queue with every deadline ten time units behind
//     the task's planned completion, and an arrival of twelve queued tasks'
//     load ordered into its middle: the overload reject, decided by the
//     demand bound with no plan computed or kept and nothing allocated but
//     the task. The queue is not full: re-planned over the nodes its end
//     leaves idle, its tail absorbs an arrival of about five tasks' load.
//   - tailmiss: a queue whose every task spans all 16 nodes, free together,
//     each due a thousandth of a time unit after its planned completion,
//     and a tenth-size arrival due between the two tasks in its middle. The
//     tasks ahead keep their plans, the arrival's own plan fits, and the
//     task behind it, planned again on the nodes the arrival now holds,
//     misses its deadline: a reject decided after two fresh plans, which
//     go back to the pool. The demand bound, counting no link time, lets
//     it through.
//
// saturated and tailmiss need a queue (not at queue=0). Time stands still
// in the rejecting mixes (a reject changes nothing). Every mix reports
// plans/op, the Plan calls of one arrival; a sealed waiting plan is kept
// without one. TestQueuedCounts holds the late, uniform and saturated
// mixes' contracts at queue=128 as exact counts, and TestTailMissCounts
// the tailmiss mix's at every depth.
func BenchmarkSubmitQueued(b *testing.B) {
	for _, depth := range []int{0, 8, 32, 128} {
		for _, mix := range []string{"late", "uniform", "reject", "saturated", "tailmiss"} {
			if (mix == "saturated" || mix == "tailmiss") && depth == 0 {
				continue
			}
			b.Run(fmt.Sprintf("queue=%d/mix=%s", depth, mix), func(b *testing.B) {
				benchSubmitQueued(b, depth, mix)
			})
		}
	}
}

func benchSubmitQueued(b *testing.B, depth int, mix string) {
	q := newQueuedRig(b, depth, mix)
	calls := q.calls
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.arrive()
	}
	b.StopTimer()
	b.ReportMetric(float64(q.calls-calls)/float64(b.N), "plans/op")
	if got := q.s.Stats().QueueLen; got < depth || got > depth+1 {
		b.Fatalf("queue depth drifted to %d, want %d", got, depth)
	}
}

const (
	queuedNodes    = 16
	queuedSigma    = 100.0
	queuedDeadline = 1e6 // loose: every queued task runs on one node
)

// queuedRig is BenchmarkSubmitQueued's scheduler and its waiting queue;
// arrive submits one arrival of the mix. calls counts the Plan calls.
type queuedRig struct {
	tb     testing.TB
	s      *Scheduler
	calls  int64
	depth  int
	mix    string
	slot   float64
	now    float64
	id     int64
	rng    uint64
	tooBig float64
}

func newQueuedRig(tb testing.TB, depth int, mix string) *queuedRig {
	q := &queuedRig{tb: tb, depth: depth, mix: mix, rng: uint64(depth)*2654435761 + 1}
	q.slot = queuedSigma * (baseline.Cms + baseline.Cps) / queuedNodes
	cl, err := cluster.New(queuedNodes, baseline)
	if err != nil {
		tb.Fatal(err)
	}
	for id := 0; id < queuedNodes && mix != "tailmiss"; id++ {
		if err := cl.Commit([]int{id}, []float64{0}, []float64{float64(id+1) * q.slot}, 0); err != nil {
			tb.Fatal(err)
		}
	}
	q.s = NewScheduler(cl, EDF, countingPlans{calls: &q.calls})
	q.now = q.slot / 2 // half a slot off the release grid, so dueness never hangs on rounding
	for i := 0; i < depth; i++ {
		d := queuedDeadline
		switch mix {
		case "saturated":
			d = q.done(i) + 10 - q.now
		case "tailmiss":
			d = float64(i+1)*tailSpan + tailSlack
		}
		q.submit(&Task{Sigma: queuedSigma, RelDeadline: d}, true)
	}
	// The largest load whose ñ_min bound still fits the cluster, 0.02% short
	// of what 16 simultaneously free nodes finish by the deadline: no start
	// later than now can make it, which the ñ_min fast-reject cannot tell.
	q.tooBig = queuedDeadline * (1 - math.Pow(baseline.Beta(), queuedNodes)) / baseline.Cms * (1 - 2e-4)
	return q
}

// tailSlack is how long after its planned completion a task of the
// tailmiss queue is due: far less than any arrival takes.
const tailSlack = 1e-3

// tailSpan is how long a queued task takes on all 16 nodes free together,
// and so, in the tailmiss queue, the gap between two completions.
var tailSpan = baseline.ExecTime(queuedSigma, queuedNodes)

// done is when task i of the initial queue completes: it runs on node
// i%16, from that node's release after the i/16 tasks queued on it before.
func (q *queuedRig) done(i int) float64 {
	return float64(i%queuedNodes+1)*q.slot + float64(i/queuedNodes+1)*queuedNodes*q.slot
}

func (q *queuedRig) submit(t *Task, want bool) {
	q.id++
	t.ID, t.Arrival = q.id, q.now
	if ok, err := q.s.Submit(t, q.now); err != nil || ok != want {
		q.tb.Fatalf("task %+v: accepted=%v err=%v, want accepted=%v", t, ok, err, want)
	}
}

func (q *queuedRig) arrive() {
	switch q.mix {
	case "reject":
		q.submit(&Task{Sigma: q.tooBig, RelDeadline: queuedDeadline + 1}, false)
		return
	case "tailmiss":
		// Due half a span after the task ahead of it, which leaves its own
		// plan room to spare.
		q.submit(&Task{Sigma: queuedSigma / 10, RelDeadline: (float64(q.depth/2)+0.5)*tailSpan + tailSlack}, false)
		return
	case "saturated":
		// Due between the two tasks in the middle of the queue; twelve
		// queued tasks' worth of load, which 16 idle nodes serve in a
		// tenth of the time it has.
		q.submit(&Task{Sigma: 12 * queuedSigma, RelDeadline: q.done(q.depth/2-1) + 15 - q.now}, false)
		return
	case "uniform":
		q.rng ^= q.rng << 13
		q.rng ^= q.rng >> 7
		q.rng ^= q.rng << 17
		u := float64(q.rng>>11) / (1 << 53)
		q.submit(&Task{Sigma: queuedSigma, RelDeadline: queuedDeadline - u*float64(q.depth)*q.slot}, true)
	default:
		q.submit(&Task{Sigma: queuedSigma, RelDeadline: queuedDeadline}, true)
	}
	q.now += q.slot
	if _, err := q.s.CommitDue(q.now); err != nil {
		q.tb.Fatal(err)
	}
}

// countingPlans is IITDLT with its Plan calls counted. It embeds IITDLT, so
// it is a FastRejecter and its searches are anchored.
type countingPlans struct {
	IITDLT
	calls *int64
}

func (p countingPlans) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	*p.calls++
	return p.IITDLT.Plan(ctx, t)
}

// TestQueuedCounts holds BenchmarkSubmitQueued's contracts at 128 waiting
// tasks as counts, which repeat exactly on any machine:
//   - late: an arrival ordered behind the whole queue computes one plan and
//     keeps the other 128, every one of them sealed (sealMinNodes), so the
//     scheduler keeps each with no Plan call: one call per arrival, and the
//     arrival does not pay for the queue ahead of it;
//   - uniform: an arrival into the middle of the queue re-plans the tasks
//     after it;
//   - saturated: the demand bound rejects an overload arrival with no Plan
//     call and no plan kept.
//
// In every mix an arrival allocates no more heap bytes than its task: each
// fresh plan is a spare that an earlier schedule dropped or that an earlier
// CommitDue committed.
func TestQueuedCounts(t *testing.T) {
	const depth, runs = 128, 200
	for _, mix := range []string{"late", "uniform", "saturated"} {
		t.Run(mix, func(t *testing.T) {
			q := newQueuedRig(t, depth, mix)
			for range runs { // past the pool's and the arena's first growth
				q.arrive()
			}
			var unsealed int64
			c0, k0 := q.s.PlanCounts()
			d0, calls0 := q.s.DemandRejects(), q.calls
			bytes := bytesPerRun(runs, func() {
				for _, e := range q.s.q.queue {
					if e.plan.minSlack <= 0 {
						unsealed++
					}
				}
				q.arrive()
			})
			c, k := q.s.PlanCounts()
			n := int64(runs)
			computed, kept, demand, calls := c-c0, k-k0, q.s.DemandRejects()-d0, q.calls-calls0
			per := func(c int64) float64 { return float64(c) / float64(n) }
			t.Logf("per arrival: %.2f plans computed, %.2f kept, %.2f Plan calls, %.2f demand rejects, %.2f bytes, %.2f unsealed waiting plans",
				per(computed), per(kept), per(calls), per(demand), bytes, per(unsealed))
			ok := bytes <= taskBytes
			switch mix {
			case "late":
				ok = ok && computed == n && kept == n*depth && calls == n && unsealed == 0
			case "saturated":
				ok = ok && computed == 0 && kept == 0 && demand == n
			}
			if !ok {
				t.Errorf("mix=%s breaks its contract", mix)
			}
		})
	}
}

// TestTailMissCounts holds BenchmarkSubmitQueued's tailmiss premise at every
// depth it runs: each arrival is a reject decided after exactly two fresh
// plans — its own, which fits, and the one of the task behind it, which
// does not — with the tasks ahead of it kept and the demand bound silent,
// and it allocates no more heap bytes than its task.
func TestTailMissCounts(t *testing.T) {
	const runs = 200
	for _, depth := range []int{8, 32, 128} {
		t.Run(fmt.Sprintf("queue=%d", depth), func(t *testing.T) {
			q := newQueuedRig(t, depth, "tailmiss")
			q.arrive() // past the pool's first growth
			c0, k0 := q.s.PlanCounts()
			bytes := bytesPerRun(runs, q.arrive)
			c, k := q.s.PlanCounts()
			if c-c0 != 2*runs || k-k0 != int64(runs*depth/2) || q.s.DemandRejects() != 0 || bytes > taskBytes {
				t.Fatalf("per arrival: %.2f plans computed, %.2f kept, %d demand rejects in all, %.2f bytes; want 2, %d, 0, <= %d",
					float64(c-c0)/runs, float64(k-k0)/runs, q.s.DemandRejects(), bytes, depth/2, taskBytes)
			}
		})
	}
}

// taskBytes bounds the heap bytes of an arrival that allocates nothing but
// its task: a Task is 40 bytes, in the 48-byte size class, and a byte more
// per arrival leaves room for what the test binary's other goroutines
// allocate meanwhile (a finalizer run after an earlier test's garbage was
// collected; seen at up to 0.24 bytes per arrival).
const taskBytes = 48 + 1

// bytesPerRun returns the heap bytes that runs calls of f allocate, per
// call, from runtime.MemStats.TotalAlloc. Unlike testing.AllocsPerRun it
// does not truncate: a plan cut from the arena costs a fraction of an
// allocation per call but hundreds of bytes.
func bytesPerRun(runs int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestRejectReturnsFreshPlans pins the reject that TestQueuedCounts' mixes
// do not reach: one decided after fresh plans. A waiting task holds both
// nodes of a two-node cluster with a thousandth of its execution time to
// spare. Each arrival fits alone and has the earlier deadline, so it is
// planned first; the waiting task, planned behind it, then misses its
// deadline. The demand bound, which counts computation only, lets every
// arrival through. The arrival's plan goes back to the pool, so a reject
// allocates no more heap bytes than its task.
func TestRejectReturnsFreshPlans(t *testing.T) {
	const runs = 200
	cl, err := cluster.New(2, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit([]int{0, 1}, []float64{0, 0}, []float64{100, 100}, 0); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(cl, EDF, IITDLT{})
	if ok, err := s.Submit(&Task{ID: 1, Sigma: 100, RelDeadline: 100 + baseline.ExecTime(100, 2)*1.001}, 0); err != nil || !ok {
		t.Fatalf("waiting task: accepted=%v err=%v", ok, err)
	}
	id := int64(1)
	arrive := func() {
		id++
		if ok, err := s.Submit(&Task{ID: id, Sigma: 1, RelDeadline: 600}, 0); err != nil || ok {
			t.Fatalf("arrival %d: accepted=%v err=%v, want a reject", id, ok, err)
		}
	}
	arrive()
	c0, _ := s.PlanCounts()
	bytes := bytesPerRun(runs, arrive)
	c, _ := s.PlanCounts()
	if c-c0 != 2*runs || s.DemandRejects() != 0 || bytes > taskBytes {
		t.Fatalf("per reject: %.2f plans computed, %d demand rejects in all, %.2f bytes; want 2, 0, <= %d",
			float64(c-c0)/runs, s.DemandRejects(), bytes, taskBytes)
	}
}

// countedPlans is a partitioner with its Plan calls counted. It shows the
// scheduler nothing but Name and Plan.
type countedPlans struct {
	Partitioner
	calls *int64
}

func (p countedPlans) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	*p.calls++
	return p.Partitioner.Plan(ctx, t)
}

// TestQueuedCountsFixed is TestQueuedCounts' late contract for the
// partitioners whose node count is fixed, on a rig of the same shape:
// behind a queue of tasks waiting for a busy cluster, an arrival ordered
// last makes exactly one Plan call, for its own plan, and keeps every
// waiting plan (sealFixed).
func TestQueuedCountsFixed(t *testing.T) {
	const depth, arrivals = 32, 8
	for _, part := range []Partitioner{OPR{AllNodes: true}, UserSplit{}} {
		cl, err := cluster.New(queuedNodes, baseline)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < queuedNodes; id++ {
			if err := cl.Commit([]int{id}, []float64{0}, []float64{1e4 + float64(id)}, 0); err != nil {
				t.Fatal(err)
			}
		}
		var calls int64
		s := NewScheduler(cl, EDF, countedPlans{part, &calls})
		for i := range depth + arrivals {
			task := &Task{ID: int64(i + 1), Sigma: queuedSigma, RelDeadline: queuedDeadline + float64(i), UserN: 1 + i%queuedNodes}
			if i >= depth {
				task.Arrival = float64(i - depth + 1)
			}
			c0, k0 := s.PlanCounts()
			calls0 := calls
			if ok, err := s.Submit(task, task.Arrival); err != nil || !ok {
				t.Fatalf("%s: task %+v: accepted=%v err=%v", part.Name(), task, ok, err)
			}
			c, k := s.PlanCounts()
			if i < depth {
				continue
			}
			if c-c0 != 1 || k-k0 != int64(i) || calls-calls0 != 1 {
				t.Fatalf("%s: arrival behind %d waiting tasks computed %d plans, kept %d, made %d Plan calls; want 1, %d, 1",
					part.Name(), i, c-c0, k-k0, calls-calls0, i)
			}
		}
	}
}

// BenchmarkAvailViewRetime measures the availability index alone under the
// traffic the admission test puts on it: each step is one tentative plan —
// the three earliest nodes, released again some task lengths later — and
// every eighth step a rejected arrival, which rolls the last eight plans
// back. From 64 nodes up the fleet spans several blocks, so a released node
// crosses from the first block into a later one, and eight plans on end
// overflow the blocks they land in. TestGateIndexGrowth holds nodes=10000
// to the same growth limit over nodes=16 as the submit benchmarks.
func BenchmarkAvailViewRetime(b *testing.B) {
	for _, n := range []int{8, 16, 64, 1024, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) { benchAvailViewRetime(b, n) })
	}
}

func benchAvailViewRetime(b *testing.B, n int) {
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i%16) * 100
	}
	v := NewAvailView(times)
	ids := make([]int, 3)
	starts := make([]float64, 3)
	release := make([]float64, 3)
	mark := v.Mark()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.EarliestInto(ids, starts)
		for j, s := range starts {
			release[j] = s + 400 + float64(i%7)*130
		}
		v.Apply(ids, release)
		if i%8 == 7 {
			v.RollbackTo(mark)
		}
	}
}
