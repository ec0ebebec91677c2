package rt

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtdls/internal/cluster"
)

// stressDrive pushes a randomized arrival stream through a scheduler,
// committing as time advances, and returns the committed plans for
// invariant checking. It exercises queue churn, EDF reordering and
// replanning much harder than the unit tests.
func stressDrive(t *testing.T, pol Policy, part Partitioner, seed uint64, tasks int) []*Plan {
	t.Helper()
	cl, err := cluster.New(12, baseline)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(cl, pol, part)
	rng := rand.New(rand.NewPCG(seed, seed^777))
	now := 0.0
	var committed []*Plan
	for i := 0; i < tasks; i++ {
		now += rng.ExpFloat64() * 600 // bursty: mean interarrival ≪ execution
		sigma := 1 + 350*rng.Float64()
		d := 1500 + 6000*rng.Float64()
		if min := baseline.ExecTime(sigma, 12); d < min {
			d = min
		}
		task := &Task{ID: int64(i), Arrival: now, Sigma: sigma, RelDeadline: d}
		if nmin, feas := userSplitMinNodesFor(task); feas && nmin <= 12 {
			task.UserN = nmin + rng.IntN(12-nmin+1)
		}
		if _, err := s.Submit(task, now); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		plans, err := s.CommitDue(now)
		if err != nil {
			t.Fatalf("commit at %v: %v", now, err)
		}
		committed = append(committed, plans...)
	}
	for s.Stats().QueueLen > 0 {
		at, ok := s.NextCommit()
		if !ok {
			t.Fatalf("stuck queue of %d", s.Stats().QueueLen)
		}
		now = math.Max(now, at)
		plans, err := s.CommitDue(now)
		if err != nil {
			t.Fatal(err)
		}
		committed = append(committed, plans...)
	}
	if got := s.Stats().Accepts; got != len(committed) {
		t.Fatalf("accepted %d but committed %d", got, len(committed))
	}
	return committed
}

// userSplitMinNodesFor computes Nmin = ⌈σCps/(D−σCms)⌉ for a task under
// the package baseline costs.
func userSplitMinNodesFor(task *Task) (int, bool) {
	slack := task.RelDeadline - task.Sigma*baseline.Cms
	if slack <= 0 {
		return 0, false
	}
	n := int(math.Ceil(task.Sigma * baseline.Cps / slack))
	if n < 1 {
		n = 1
	}
	return n, true
}

// TestStressNoOverlapNoMiss runs every partitioner under both policies
// through a bursty stream and checks, per node, that committed busy
// intervals never overlap and every dispatch meets its deadline.
func TestStressNoOverlapNoMiss(t *testing.T) {
	for _, pol := range []Policy{EDF, FIFO} {
		for _, part := range []Partitioner{IITDLT{}, OPR{}, OPR{AllNodes: true}, UserSplit{}} {
			for seed := uint64(1); seed <= 3; seed++ {
				committed := stressDrive(t, pol, part, seed, 500)
				busyUntil := make([]float64, 12)
				for _, pl := range committed {
					for i, id := range pl.Nodes {
						if pl.Starts[i] < busyUntil[id]-1e-6 {
							t.Fatalf("%v/%s seed %d: node %d overlap (start %v < busy-until %v)",
								pol, part.Name(), seed, id, pl.Starts[i], busyUntil[id])
						}
						busyUntil[id] = pl.Release[i]
					}
					absD := pl.Task.AbsDeadline()
					if pl.Est > absD+1e-6*math.Max(1, absD) {
						t.Fatalf("%v/%s seed %d: est %v past deadline %v",
							pol, part.Name(), seed, pl.Est, absD)
					}
				}
			}
		}
	}
}

// TestStressCommitOrderMatchesFirstStart: plans commit in non-decreasing
// FirstStart order — the property the driver's single pending commit event
// relies on.
func TestStressCommitOrderMatchesFirstStart(t *testing.T) {
	committed := stressDrive(t, EDF, IITDLT{}, 11, 600)
	prev := math.Inf(-1)
	for _, pl := range committed {
		fs := pl.FirstStart()
		if fs < prev-1e-6 {
			t.Fatalf("commit order violates FirstStart monotonicity: %v after %v", fs, prev)
		}
		prev = fs
	}
}

// TestStressEDFVsFIFOAdmissions: with identical streams, EDF should admit
// at least as many tasks as FIFO in aggregate for the DLT partitioner
// (it can rescue tight-deadline arrivals FIFO would reject). This is a
// statistical property over several seeds, not a per-seed theorem.
func TestStressEDFVsFIFOAdmissions(t *testing.T) {
	var edf, fifo int
	for seed := uint64(1); seed <= 5; seed++ {
		edf += len(stressDrive(t, EDF, IITDLT{}, seed, 400))
		fifo += len(stressDrive(t, FIFO, IITDLT{}, seed, 400))
	}
	if edf < fifo-10 {
		t.Fatalf("EDF admitted clearly fewer tasks than FIFO: %d vs %d", edf, fifo)
	}
}
