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
// benchmarks below. scripts/bench_index.sh runs them into BENCH_index.json
// and cmd/benchgate gates the nodes=10000 vs nodes=100 ns/op ratio, so the
// sub-linear per-submit contract of the availability index is enforced in
// CI without machine-dependent absolute thresholds.
var submitScaleSizes = []int{100, 1000, 10000}

// BenchmarkSubmit measures the steady-state accept path as the fleet
// grows: every task is feasible, commits on the next sweep, and touches
// only its ñ_min nodes, so per-submit cost is dominated by the
// availability-view maintenance — one rollback of the previous test's
// tentative assignments plus k retimings of the order index. Before the
// index this path re-sorted all n nodes per submission.
func BenchmarkSubmit(b *testing.B) {
	for _, n := range submitScaleSizes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
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
		})
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
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
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
		})
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
// arrival. scripts/bench_index.sh runs the sweep into BENCH_index.json and
// cmd/benchgate gates the late mix's queue=128 vs queue=8 ns/op ratio — an
// arrival ordered behind the queue must not pay for the queue — and the
// saturated mix's plans/op and allocs/op at queue=128.
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
	const (
		nodes    = 16
		sigma    = 100.0
		deadline = 1e6 // loose: every queued task runs on one node
	)
	slot := sigma * (baseline.Cms + baseline.Cps) / nodes
	cl, err := cluster.New(nodes, baseline)
	if err != nil {
		b.Fatal(err)
	}
	for id := 0; id < nodes; id++ {
		if err := cl.Commit([]int{id}, []float64{0}, []float64{float64(id+1) * slot}, 0); err != nil {
			b.Fatal(err)
		}
	}
	s := NewScheduler(cl, EDF, IITDLT{})
	now := slot / 2 // half a slot off the release grid, so dueness never hangs on rounding
	id := int64(0)
	submit := func(t *Task, want bool) {
		id++
		t.ID, t.Arrival = id, now
		if ok, err := s.Submit(t, now); err != nil || ok != want {
			b.Fatalf("task %+v: accepted=%v err=%v, want accepted=%v", t, ok, err, want)
		}
	}
	// Task i of the queue runs on node i%16, from that node's release after
	// the i/16 tasks queued on it before: done is when.
	done := func(i int) float64 { return float64(i%nodes+1)*slot + float64(i/nodes+1)*nodes*slot }
	for i := 0; i < depth; i++ {
		d := deadline
		if mix == "saturated" {
			d = done(i) + 10 - now
		}
		submit(&Task{Sigma: sigma, RelDeadline: d}, true)
	}
	// The largest load whose ñ_min bound still fits the cluster, 0.02% short
	// of what 16 simultaneously free nodes finish by the deadline: no start
	// later than now can make it, which the ñ_min fast-reject cannot tell.
	tooBig := deadline * (1 - math.Pow(baseline.Beta(), nodes)) / baseline.Cms * (1 - 2e-4)
	rng := uint64(depth)*2654435761 + 1
	computed, kept := s.PlanCounts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch mix {
		case "reject":
			submit(&Task{Sigma: tooBig, RelDeadline: deadline + 1}, false)
			continue
		case "saturated":
			// Due between the two tasks in the middle of the queue; twelve
			// queued tasks' worth of load, which 16 idle nodes serve in a
			// tenth of the time it has.
			submit(&Task{Sigma: 12 * sigma, RelDeadline: done(depth/2-1) + 15 - now}, false)
			continue
		case "uniform":
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			u := float64(rng>>11) / (1 << 53)
			submit(&Task{Sigma: sigma, RelDeadline: deadline - u*float64(depth)*slot}, true)
		default:
			submit(&Task{Sigma: sigma, RelDeadline: deadline}, true)
		}
		now += slot
		if _, err := s.CommitDue(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c, k := s.PlanCounts()
	b.ReportMetric(float64(c-computed+k-kept)/float64(b.N), "plans/op")
	if got := s.Stats().QueueLen; got < depth || got > depth+1 {
		b.Fatalf("queue depth drifted to %d, want %d", got, depth)
	}
}

// BenchmarkAvailViewRetime measures the availability index alone under the
// traffic the admission test puts on it: each step is one tentative plan —
// the three earliest nodes, released again some task lengths later — and
// every eighth step a rejected arrival, which rolls the last eight plans
// back. From 64 nodes up the fleet spans several blocks, so a released node
// crosses from the first block into a later one, and eight plans on end
// overflow the blocks they land in. scripts/bench_index.sh runs the sweep
// and cmd/benchgate holds nodes=10000 to the same growth limit over
// nodes=16 as the submit benchmarks.
func BenchmarkAvailViewRetime(b *testing.B) {
	for _, n := range []int{8, 16, 64, 1024, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
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
		})
	}
}
