package rt

import (
	"fmt"
	"math"
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
// queue held at a fixed depth, for the four kinds of arrival the wire
// sees. The 16 nodes free up one slot (one single-node task) apart and a
// queue of `queue` single-node tasks with loose deadlines is planned onto
// the coming slots; every iteration of the accepting mixes advances time
// by one slot, commits the task at the head and submits one arrival, so
// the depth holds.
//
//   - late: the arrival's deadline is the latest — EDF orders it last, every
//     waiting task keeps its plan, one plan is computed.
//   - uniform: the deadline falls uniformly inside the queue's range — the
//     tasks ordered after the arrival are planned again behind it.
//   - reject: ordered last and passing the ñ_min fast-reject, but too big to
//     finish in time on all 16 nodes — by 0.02 %, of which 8 % is link time
//     the demand bound does not count: at queue=8 and 32 this is still the
//     reject a whole-queue test pays the full queue for, at queue=128 the
//     waiting tasks' own demand closes the gap and the bound decides it at
//     the arrival's deadline after one pass over the queue's σ.
//   - saturated: the same queue with every deadline ten time units behind
//     the task's planned completion — deadline-dense, no room to spare — and
//     an arrival ordered into its middle that would fit an idle fleet but is
//     more than the queue leaves: the overload reject, decided by the demand
//     bound with no plan computed or kept and nothing allocated but the task.
//     (Not at queue=0: with nothing waiting the arrival fits.)
//
// Time stands still in the rejecting mixes (a reject changes nothing). Every
// mix reports plans/op, the Plan calls — fresh and kept-prior offers — of one
// arrival. TestQueuedCounts holds the late, uniform and saturated mixes'
// contracts at queue=128 as exact counts.
func BenchmarkSubmitQueued(b *testing.B) {
	for _, depth := range []int{0, 8, 32, 128} {
		for _, mix := range []string{"late", "uniform", "reject", "saturated"} {
			if mix == "saturated" && depth == 0 {
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
	computed, kept := q.s.PlanCounts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.arrive()
	}
	b.StopTimer()
	c, k := q.s.PlanCounts()
	b.ReportMetric(float64(c-computed+k-kept)/float64(b.N), "plans/op")
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
// arrive submits one arrival of the mix.
type queuedRig struct {
	tb     testing.TB
	s      *Scheduler
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
	for id := 0; id < queuedNodes; id++ {
		if err := cl.Commit([]int{id}, []float64{0}, []float64{float64(id+1) * q.slot}, 0); err != nil {
			tb.Fatal(err)
		}
	}
	q.s = NewScheduler(cl, EDF, IITDLT{})
	q.now = q.slot / 2 // half a slot off the release grid, so dueness never hangs on rounding
	for i := 0; i < depth; i++ {
		d := queuedDeadline
		if mix == "saturated" {
			d = q.done(i) + 10 - q.now
		}
		q.submit(&Task{Sigma: queuedSigma, RelDeadline: d}, true)
	}
	// The largest load whose ñ_min bound still fits the cluster, 0.02% short
	// of what 16 simultaneously free nodes finish by the deadline: no start
	// later than now can make it, which the ñ_min fast-reject cannot tell.
	q.tooBig = queuedDeadline * (1 - math.Pow(baseline.Beta(), queuedNodes)) / baseline.Cms * (1 - 2e-4)
	return q
}

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

// TestQueuedCounts holds BenchmarkSubmitQueued's contracts at 128 waiting
// tasks as counts, which repeat exactly on any machine:
//   - late: an arrival ordered behind the whole queue computes one plan and
//     keeps the other 128, every one of them sealed (sealMinNodes), so no
//     kept offer evaluates an ñ_min bound and the arrival does not pay for
//     the queue ahead of it;
//   - uniform: an arrival into the middle of the queue re-plans the tasks
//     after it in at most 6 allocations — fresh plans are cut from the plan
//     arena, so only its chunk refills allocate;
//   - saturated: the demand bound rejects an overload arrival with no Plan
//     call, fresh or kept-prior, and no allocation beside the task.
func TestQueuedCounts(t *testing.T) {
	const depth, runs = 128, 200
	for _, mix := range []string{"late", "uniform", "saturated"} {
		t.Run(mix, func(t *testing.T) {
			q := newQueuedRig(t, depth, mix)
			for range runs { // past the plan arena's first chunks
				q.arrive()
			}
			var unsealed int64
			c0, k0 := q.s.PlanCounts()
			d0 := q.s.DemandRejects()
			allocs := testing.AllocsPerRun(runs, func() {
				for _, e := range q.s.q.queue {
					if e.plan.minSlack <= 0 {
						unsealed++
					}
				}
				q.arrive()
			})
			c, k := q.s.PlanCounts()
			n := int64(runs + 1) // AllocsPerRun's warm-up call arrives too
			computed, kept, demand := c-c0, k-k0, q.s.DemandRejects()-d0
			per := func(c int64) float64 { return float64(c) / float64(n) }
			t.Logf("per arrival: %.2f plans computed, %.2f kept, %.2f demand rejects, %.0f allocs, %.2f unsealed waiting plans",
				per(computed), per(kept), per(demand), allocs, per(unsealed))
			var ok bool
			switch mix {
			case "late":
				ok = computed == n && kept == n*depth && unsealed == 0
			case "uniform":
				ok = allocs <= 6
			case "saturated":
				ok = computed == 0 && kept == 0 && demand == n && allocs <= 1
			}
			if !ok {
				t.Errorf("mix=%s breaks its contract", mix)
			}
		})
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
