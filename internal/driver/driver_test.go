package driver

import (
	"math"
	"testing"

	"rtdls/internal/trace"
)

func quickCfg(alg string, load float64, seed uint64) Config {
	cfg := Default()
	cfg.Algorithm = alg
	cfg.SystemLoad = load
	cfg.Horizon = 3e5
	cfg.Seed = seed
	return cfg
}

func TestRunValidation(t *testing.T) {
	bad := Default()
	bad.Algorithm = "nonsense"
	if _, err := Run(bad); err == nil {
		t.Fatalf("unknown algorithm must fail")
	}
	bad = Default()
	bad.Policy = "lifo"
	if _, err := Run(bad); err == nil {
		t.Fatalf("unknown policy must fail")
	}
	bad = Default()
	bad.N = 0
	if _, err := Run(bad); err == nil {
		t.Fatalf("empty cluster must fail")
	}
	bad = Default()
	bad.SystemLoad = 0
	if _, err := Run(bad); err == nil {
		t.Fatalf("zero load must fail")
	}
}

func TestAlgorithmsListMatchesFactory(t *testing.T) {
	for _, alg := range Algorithms() {
		cfg := Default()
		cfg.Algorithm = alg
		if _, err := PartitionerFor(cfg.Algorithm, cfg.Rounds, nil); err != nil {
			t.Fatalf("listed algorithm %q not constructible: %v", alg, err)
		}
	}
}

func TestAccountingConservation(t *testing.T) {
	for _, alg := range Algorithms() {
		r, err := Run(quickCfg(alg, 0.6, 3))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if r.Arrivals == 0 {
			t.Fatalf("%s: no arrivals", alg)
		}
		if r.Arrivals != r.Accepted+r.Rejected {
			t.Fatalf("%s: %d != %d + %d", alg, r.Arrivals, r.Accepted, r.Rejected)
		}
		if r.Committed != r.Accepted {
			t.Fatalf("%s: committed %d != accepted %d", alg, r.Committed, r.Accepted)
		}
		want := float64(r.Rejected) / float64(r.Arrivals)
		if math.Abs(r.RejectRatio-want) > 1e-12 {
			t.Fatalf("%s: reject ratio %v, want %v", alg, r.RejectRatio, want)
		}
	}
}

// TestNoDeadlineMisses is the end-to-end real-time guarantee: across every
// algorithm and several loads, no admitted task ever finishes after its
// absolute deadline.
func TestNoDeadlineMisses(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, load := range []float64{0.3, 0.9} {
			for seed := uint64(1); seed <= 3; seed++ {
				r, err := Run(quickCfg(alg, load, seed))
				if err != nil {
					t.Fatalf("%s load %v seed %d: %v", alg, load, seed, err)
				}
				tol := 1e-6 * math.Max(1, r.Span)
				if r.Committed > 0 && r.MaxLateness > tol {
					t.Fatalf("%s load %v seed %d: max lateness %v > 0",
						alg, load, seed, r.MaxLateness)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, alg := range []string{AlgDLTIIT, AlgOPRMN, AlgUserSplit} {
		a, err := Run(quickCfg(alg, 0.7, 11))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(quickCfg(alg, 0.7, 11))
		if err != nil {
			t.Fatal(err)
		}
		if a.RejectRatio != b.RejectRatio || a.Arrivals != b.Arrivals ||
			a.MeanResponse != b.MeanResponse || a.Utilization != b.Utilization {
			t.Fatalf("%s: same seed produced different results", alg)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a, _ := Run(quickCfg(AlgDLTIIT, 0.7, 1))
	b, _ := Run(quickCfg(AlgDLTIIT, 0.7, 2))
	if a.Arrivals == b.Arrivals && a.RejectRatio == b.RejectRatio && a.MeanResponse == b.MeanResponse {
		t.Fatalf("different seeds produced identical runs (suspicious)")
	}
}

// TestHeadlineResult is the paper's central claim at baseline parameters:
// utilising IITs (EDF-DLT) never rejects more than the no-IIT baseline
// (EDF-OPR-MN) under paired seeds, and strictly less in aggregate.
func TestHeadlineResult(t *testing.T) {
	var dltSum, oprSum float64
	for _, load := range []float64{0.4, 0.7, 1.0} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfgD := quickCfg(AlgDLTIIT, load, seed)
			cfgD.Horizon = 5e5
			d, err := Run(cfgD)
			if err != nil {
				t.Fatal(err)
			}
			cfgO := quickCfg(AlgOPRMN, load, seed)
			cfgO.Horizon = 5e5
			o, err := Run(cfgO)
			if err != nil {
				t.Fatal(err)
			}
			dltSum += d.RejectRatio
			oprSum += o.RejectRatio
		}
	}
	if !(dltSum < oprSum) {
		t.Fatalf("EDF-DLT aggregate reject %v not below EDF-OPR-MN %v", dltSum, oprSum)
	}
}

// TestMultiRoundImproves: the future-work extension should not be worse
// than single-round DLT in aggregate.
func TestMultiRoundImproves(t *testing.T) {
	var srSum, mrSum float64
	for seed := uint64(1); seed <= 3; seed++ {
		sr, err := Run(quickCfg(AlgDLTIIT, 0.8, seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickCfg(AlgDLTMR, 0.8, seed)
		cfg.Rounds = 4
		mr, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srSum += sr.RejectRatio
		mrSum += mr.RejectRatio
	}
	if mrSum > srSum+1e-9 {
		t.Fatalf("multi-round aggregate %v worse than single-round %v", mrSum, srSum)
	}
}

func TestOPRReservesIdleTime(t *testing.T) {
	o, err := Run(quickCfg(AlgOPRMN, 0.9, 5))
	if err != nil {
		t.Fatal(err)
	}
	if o.ReservedIdleFrac <= 0 {
		t.Fatalf("OPR-MN at high load should waste some IIT, got %v", o.ReservedIdleFrac)
	}
	d, err := Run(quickCfg(AlgDLTIIT, 0.9, 5))
	if err != nil {
		t.Fatal(err)
	}
	if d.ReservedIdleFrac != 0 {
		t.Fatalf("dlt-iit must not reserve idle time, got %v", d.ReservedIdleFrac)
	}
}

func TestObserverWiring(t *testing.T) {
	cfg := quickCfg(AlgDLTIIT, 0.6, 9)
	ring := trace.NewRing(64)
	cfg.Observer = ring
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Accepts() != r.Accepted || ring.Rejects() != r.Rejected || ring.Commits() != r.Committed {
		t.Fatalf("observer saw %d/%d/%d, driver counted %d/%d/%d",
			ring.Accepts(), ring.Rejects(), ring.Commits(),
			r.Accepted, r.Rejected, r.Committed)
	}
}

func TestUtilizationSane(t *testing.T) {
	r, err := Run(quickCfg(AlgDLTIIT, 1.0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %v out of (0,1]", r.Utilization)
	}
	if r.Span < r.Config.Horizon {
		t.Fatalf("span %v below horizon", r.Span)
	}
	if r.MeanNodes < 1 || r.MeanNodes > float64(r.Config.N) {
		t.Fatalf("mean nodes %v out of range", r.MeanNodes)
	}
	if r.MeanResponse <= 0 {
		t.Fatalf("mean response %v", r.MeanResponse)
	}
	if r.MeanEstSlack < -1e-9 {
		t.Fatalf("estimate slack must be non-negative (Theorem 4), got %v", r.MeanEstSlack)
	}
}

func TestDefaultRoundsApplied(t *testing.T) {
	cfg := Default()
	cfg.Algorithm = AlgDLTMR
	cfg.Rounds = 0 // should default to 2
	p, err := PartitionerFor(cfg.Algorithm, cfg.Rounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "dlt-mr2" {
		t.Fatalf("default rounds not applied: %s", p.Name())
	}
}
