package driver

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
	"rtdls/internal/fleet"
	"rtdls/internal/workload"
)

// churnCfg is a moderately loaded run with a fail/restore cycle in the
// middle of the arrival window.
func churnCfg(schedule string, shards int) Config {
	cfg := Default()
	cfg.SystemLoad = 0.9
	cfg.Horizon = 2e5
	cfg.Seed = 7
	if shards > 0 {
		cfg.N = 8
		cfg.Shards = shards
	}
	sch, err := fleet.ParseSchedule(schedule)
	if err != nil {
		panic(err)
	}
	cfg.Churn = sch
	return cfg
}

// TestChurnAccountingIdentity: under churn the driver's internal check is
// the relaxed identity committed + displaced − readmitted == accepted;
// this exercises it at the API surface for both engines and pins the
// hard-real-time side condition LateCommits == 0.
func TestChurnAccountingIdentity(t *testing.T) {
	for _, shards := range []int{0, 4} {
		res, err := Run(churnCfg("t=40000 fail n3; t=90000 drain n5; t=140000 restore n3; t=160000 restore n5", shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Arrivals == 0 {
			t.Fatalf("shards=%d: no arrivals", shards)
		}
		if res.Committed+res.Displaced-res.Readmitted != res.Accepted {
			t.Fatalf("shards=%d: %d committed + %d displaced - %d readmitted != %d accepted",
				shards, res.Committed, res.Displaced, res.Readmitted, res.Accepted)
		}
		if res.LateCommits != 0 {
			t.Fatalf("shards=%d: %d late commits — churn must displace, never break deadlines", shards, res.LateCommits)
		}
		if tol := 1e-6 * res.Span; res.MaxLateness > tol {
			t.Fatalf("shards=%d: max lateness %v under churn", shards, res.MaxLateness)
		}
	}
}

// TestChurnDisplacesUnderLoad: failing half an 8-node cluster at 90%
// load must actually unseat waiting work — otherwise the churn path is
// dead code in this test suite.
func TestChurnDisplacesUnderLoad(t *testing.T) {
	cfg := churnCfg("t=50000 fail n0; t=50000 fail n1; t=50000 fail n2; t=50000 fail n3; t=150000 restore n0; t=150000 restore n1; t=150000 restore n2; t=150000 restore n3", 0)
	cfg.N = 8
	cfg.SystemLoad = 1.5
	cfg.DCRatio = 12 // slack deadlines keep a waiting queue for the failure to hit
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Displaced == 0 {
		t.Fatalf("no displacements: %+v", res)
	}
	// A single cluster has nowhere to re-seat displaced work.
	if res.Readmitted != 0 {
		t.Fatalf("readmitted = %d on a single cluster", res.Readmitted)
	}
}

// TestChurnPoolReadmits: on a sharded pool a failed shard's displaced
// tasks go back through placement, so some must land on a live shard.
func TestChurnPoolReadmits(t *testing.T) {
	cfg := churnCfg("t=50000 fail n0; t=50000 fail n1; t=50000 fail n2; t=50000 fail n3; "+
		"t=50000 fail n4; t=50000 fail n5; t=50000 fail n6; t=50000 fail n7", 4)
	cfg.SystemLoad = 1.5
	cfg.DCRatio = 12 // slack deadlines keep per-shard waiting queues for the failure to hit
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Displaced == 0 {
		t.Fatalf("failing a whole shard displaced nothing: %+v", res)
	}
	if res.Readmitted == 0 {
		t.Fatalf("pool re-admitted nothing of %d displaced: %+v", res.Displaced, res)
	}
	if res.Readmitted > res.Displaced {
		t.Fatalf("readmitted %d > displaced %d", res.Readmitted, res.Displaced)
	}
}

// TestChurnReproducible: a churn schedule runs on the simulated clock, so
// the same seed and schedule must reproduce the run bit for bit.
func TestChurnReproducible(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := churnCfg("t=40000 fail n3; t=140000 restore n3", shards)
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: churn run not reproducible:\n%+v\n%+v", shards, a, b)
		}
	}
}

// TestChurnBadNode: a schedule naming a node outside the fleet must fail
// the run with a typed error, not corrupt it.
func TestChurnBadNode(t *testing.T) {
	if _, err := Run(churnCfg("t=1000 fail n99", 0)); err == nil {
		t.Fatal("out-of-range churn node must fail the run")
	}
	if _, err := Run(churnCfg("t=1000 fail n99", 4)); err == nil {
		t.Fatal("out-of-range churn node must fail the pool run")
	}
}

// TestChurnBadOffset: a built (not parsed) schedule can carry any
// offset; one that is negative or not finite is a configuration error
// before the run starts.
func TestChurnBadOffset(t *testing.T) {
	for _, c := range []struct {
		name string
		at   float64
	}{{"negative", -1}, {"NaN", math.NaN()}, {"posInf", math.Inf(1)}, {"negInf", math.Inf(-1)}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := churnCfg("t=1000 fail n3", 0)
			cfg.Churn = append(cfg.Churn, fleet.Op{At: c.at, State: cluster.NodeUp, Node: 3})
			if _, err := Run(cfg); !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestNoChurnFieldsZero: without churn the new Result fields stay zero and
// the classic strict identity holds (Committed == Accepted).
func TestNoChurnFieldsZero(t *testing.T) {
	res, err := Run(quickCfg(AlgDLTIIT, 0.7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Displaced != 0 || res.Readmitted != 0 || res.LateCommits != 0 {
		t.Fatalf("churn fields nonzero without churn: %+v", res)
	}
	if res.Committed != res.Accepted {
		t.Fatalf("strict identity broken without churn: %+v", res)
	}
}

// arrivalTimes returns the arrival instants of a one-shard run of cfg.
func arrivalTimes(t *testing.T, cfg Config) []float64 {
	gen, err := workload.New(workload.Config{
		N: cfg.N, Params: cfg.Params(),
		SystemLoad: cfg.SystemLoad, AvgSigma: cfg.AvgSigma,
		DCRatio: cfg.DCRatio, Horizon: cfg.Horizon, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var at []float64
	for task, ok := gen.Next(); ok; task, ok = gen.Next() {
		at = append(at, task.Arrival)
	}
	return at
}

// tieChurnCfg puts a churn op at the exact instant of every third
// arrival (the 3rd, 6th, ...), alternating fail and restore, on node
// (k/6) mod N for the k-th arrival. The pairing leaves part of the fleet
// failed at any time, so the order of an op and its same-instant arrival
// changes what the arrival is offered.
func tieChurnCfg(t *testing.T) Config {
	cfg := Default()
	cfg.SystemLoad = 1.5
	cfg.Horizon = 1e6
	for i, at := range arrivalTimes(t, cfg) {
		k := i + 1
		if k%3 != 0 {
			continue
		}
		st := cluster.NodeDown
		if len(cfg.Churn)%2 == 1 {
			st = cluster.NodeUp
		}
		cfg.Churn = append(cfg.Churn, fleet.Op{At: at, State: st, Node: (k / 6) % cfg.N})
	}
	return cfg
}

// TestChurnTieOrder pins the order of a churn op and an arrival at the
// same instant as exact counts: the op applies first, so the arrival is
// offered the fleet the op left. Running the arrival first gives 146
// accepted, 955 rejected, 143 committed and 3 displaced instead.
func TestChurnTieOrder(t *testing.T) {
	cfg := tieChurnCfg(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := [5]int{len(cfg.Churn), res.Accepted, res.Rejected, res.Committed, res.Displaced}
	if want := [5]int{367, 136, 965, 136, 0}; got != want {
		t.Fatalf("ops, accepted, rejected, committed, displaced = %v, want %v", got, want)
	}
	if res.LateCommits != 0 {
		t.Fatalf("%d late commits", res.LateCommits)
	}
}

// FuzzRunChurn replays short built schedules whose ops land on arrival
// instants, anywhere in or past the arrival window, or at an invalid
// offset. Run must not panic, must fail with ErrBadConfig exactly when an
// offset is invalid, and otherwise must pass its own accounting checks
// with no late commit.
func FuzzRunChurn(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 3, 5, 0, 2, 3, 9, 1, 1, 7, 90})
	f.Add(uint64(2), []byte{1, 0, 0, 200, 0, 1, 0, 200, 1, 2, 0, 250})
	f.Add(uint64(3), []byte{0, 1, 2, 3, 2, 2, 1, 1})
	badOffsets := []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), -math.SmallestNonzeroFloat64}
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		cfg := Default()
		cfg.SystemLoad = 1.2
		cfg.Horizon = 1e5
		cfg.Seed = seed
		arrivals := arrivalTimes(t, cfg)
		invalid := false
		for ; len(raw) >= 4 && len(cfg.Churn) < 16; raw = raw[4:] {
			op := fleet.Op{State: [...]cluster.NodeState{cluster.NodeDraining, cluster.NodeDown, cluster.NodeUp}[raw[1]%3], Node: int(raw[2]) % cfg.N}
			switch v := int(raw[3]); raw[0] % 3 {
			case 0:
				if len(arrivals) == 0 {
					continue
				}
				op.At = arrivals[v%len(arrivals)]
			case 1:
				op.At = float64(v) / 200 * cfg.Horizon
			default:
				op.At = badOffsets[v%len(badOffsets)]
				invalid = true
			}
			cfg.Churn = append(cfg.Churn, op)
		}
		res, err := Run(cfg)
		if invalid {
			if !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("schedule %v: err = %v, want ErrBadConfig", cfg.Churn, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("schedule %v: %v", cfg.Churn, err)
		}
		if res.LateCommits != 0 {
			t.Fatalf("schedule %v: %d late commits", cfg.Churn, res.LateCommits)
		}
	})
}
