package driver

import (
	"errors"
	"testing"

	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/pool"
)

// TestPoolRunSingleShardMatchesClassic: an explicit Shards=1 run must
// reproduce the default run bit for bit — one shard is the paper's
// cluster, whatever its policy or cost table, so its arrival stream is not
// rescaled by a spread table's capacity.
func TestPoolRunSingleShardMatchesClassic(t *testing.T) {
	variants := []struct {
		label string
		mut   func(*Config)
	}{
		{"base", func(c *Config) {}},
		{"spread", func(c *Config) { c.CmsSpread, c.CpsSpread, c.HeteroSeed = 2, 4, 7 }},
		{"fifo-spread", func(c *Config) { c.Policy = "fifo"; c.CpsSpread, c.HeteroSeed = 4, 3 }},
	}
	for _, alg := range []string{AlgDLTIIT, AlgOPRMN, AlgUserSplit, AlgOPRAN, AlgDLTMR} {
		for _, v := range variants {
			cfg := Default()
			cfg.Algorithm = alg
			cfg.SystemLoad = 0.85
			cfg.Horizon = 1e5
			v.mut(&cfg)
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: classic: %v", alg, v.label, err)
			}
			cfg.Shards = 1
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: pool: %v", alg, v.label, err)
			}
			if got.Shards != 1 || want.Shards != 1 {
				t.Fatalf("%s: shards %d / %d", alg, want.Shards, got.Shards)
			}
			requireBitIdentical(t, alg+"/"+v.label+"/shards=1", want, got)
		}
	}
}

func TestPoolRunMultiShard(t *testing.T) {
	cfg := Default()
	cfg.N = 8
	cfg.Shards = 4
	cfg.SystemLoad = 0.8
	cfg.Horizon = 2e5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.Placement != "round-robin" {
		t.Fatalf("result = %+v", res)
	}
	if len(res.ShardRejectRatios) != 4 {
		t.Fatalf("shard reject ratios = %v", res.ShardRejectRatios)
	}
	if res.Arrivals < 100 {
		t.Fatalf("only %d arrivals — aggregate arrival rate not scaled to the fleet", res.Arrivals)
	}
	if tol := 1e-6 * res.Span; res.MaxLateness > tol {
		t.Fatalf("hard real-time violation: max lateness %v", res.MaxLateness)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization = %v", res.Utilization)
	}

	// Spillover over the same fleet and workload must not reject more.
	sp := cfg
	sp.Placement = pool.Spillover{Inner: pool.RoundRobin{}}
	spill, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if spill.Placement != "spillover(round-robin)" {
		t.Fatalf("placement = %q", spill.Placement)
	}
	if spill.Rejected > res.Rejected {
		t.Fatalf("spillover rejected more than round robin: %d vs %d", spill.Rejected, res.Rejected)
	}
}

// TestPoolRunShardNodesCapacity: splitting the same 32 nodes into 4×8
// keeps the offered load constant — the aggregate arrival count must be
// close to the monolithic 32-node run's.
func TestPoolRunShardNodesCapacity(t *testing.T) {
	mono := Default()
	mono.N = 32
	mono.SystemLoad = 0.5
	mono.Horizon = 2e5
	wantRes, err := Run(mono)
	if err != nil {
		t.Fatal(err)
	}
	sharded := Default()
	sharded.N = 8
	sharded.ShardNodes = []int{8, 8, 8, 8}
	sharded.SystemLoad = 0.5
	sharded.Horizon = 2e5
	gotRes, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := wantRes.Arrivals*7/10, wantRes.Arrivals*13/10
	if gotRes.Arrivals < lo || gotRes.Arrivals > hi {
		t.Fatalf("sharded arrivals %d outside [%d, %d] of monolithic %d — load calibration broken",
			gotRes.Arrivals, lo, hi, wantRes.Arrivals)
	}
}

func TestShardPlanValidation(t *testing.T) {
	cfg := Default()
	cfg.Shards = -1
	if _, err := cfg.ShardPlan(); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("negative shards: %v", err)
	}
	cfg = Default()
	cfg.Shards = 3
	cfg.ShardNodes = []int{8, 8}
	if _, err := cfg.ShardPlan(); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("mismatched shard nodes: %v", err)
	}
	cfg = Default()
	cfg.Shards = 2
	cfg.ShardNodeCosts = [][]dlt.NodeCost{{{Cms: 1, Cps: 100}}}
	if _, err := cfg.ShardPlan(); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("mismatched shard cost tables: %v", err)
	}

	// A single-cluster cost table cannot size individually-shaped shards;
	// silently dropping it would run the wrong cost model.
	cfg = Default()
	cfg.NodeCosts = []dlt.NodeCost{{Cms: 1, Cps: 100}, {Cms: 1, Cps: 200}}
	cfg.ShardNodes = []int{2, 2}
	if _, err := cfg.ShardPlan(); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("NodeCosts with ShardNodes: %v", err)
	}
	cfg = Default()
	cfg.NodeCosts = []dlt.NodeCost{{Cms: 1, Cps: 100}}
	cfg.ShardNodeCosts = [][]dlt.NodeCost{{{Cms: 1, Cps: 100}}}
	if _, err := cfg.ShardPlan(); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("NodeCosts with ShardNodeCosts: %v", err)
	}

	cfg = Default()
	cfg.ShardNodes = []int{16, 4}
	cms, err := cfg.ShardPlan()
	if err != nil || len(cms) != 2 || cms[0].N() != 16 || cms[1].N() != 4 {
		t.Fatalf("plan = %d shards, %v, %v", len(cms), cms, err)
	}

	// Spread draws differ per shard but shard 0 matches the single draw.
	cfg = Default()
	cfg.Shards = 2
	cfg.CpsSpread = 4
	cfg.HeteroSeed = 9
	cms, err = cfg.ShardPlan()
	if err != nil {
		t.Fatal(err)
	}
	single := Default()
	single.CpsSpread = 4
	single.HeteroSeed = 9
	want, err := single.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.N(); i++ {
		if cms[0].At(i) != want.At(i) {
			t.Fatalf("shard 0 spread table diverges from single-cluster draw at node %d", i)
		}
	}
	same := true
	for i := 0; i < want.N(); i++ {
		if cms[1].At(i) != cms[0].At(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("shard 1 drew the identical table — fleet heterogeneity lost")
	}
}
