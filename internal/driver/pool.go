package driver

import (
	"fmt"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
)

// ShardPlan resolves the pool layout the configuration describes: one cost
// model per shard. Per-shard node counts (ShardNodes) and explicit
// per-shard cost tables (ShardNodeCosts) both fix the shard count; when
// only Shards is given, every shard is a copy of the cluster
// configuration — except that a spread draw (CmsSpread/CpsSpread) seeds
// shard j with HeteroSeed+j, so a fleet of spread shards gets distinct
// tables while shard 0 reproduces the one-shard draw.
func (c Config) ShardPlan() ([]*dlt.CostModel, error) {
	k := c.Shards
	if k < 0 {
		return nil, fmt.Errorf("driver: negative shard count %d: %w", k, errs.ErrBadConfig)
	}
	if len(c.NodeCosts) > 0 && (len(c.ShardNodes) > 0 || len(c.ShardNodeCosts) > 0) {
		// A one-cluster cost table cannot size individually-shaped
		// shards; dropping it silently would simulate the wrong cost model.
		return nil, fmt.Errorf("driver: NodeCosts conflicts with per-shard sizing; give each shard its own table via ShardNodeCosts: %w", errs.ErrBadConfig)
	}
	if n := len(c.ShardNodeCosts); n > 0 {
		if k != 0 && k != n {
			return nil, fmt.Errorf("driver: %d shard cost tables for Shards=%d: %w", n, k, errs.ErrBadConfig)
		}
		k = n
	}
	if n := len(c.ShardNodes); n > 0 {
		if k != 0 && k != n {
			return nil, fmt.Errorf("driver: %d shard node counts for %d shards: %w", n, k, errs.ErrBadConfig)
		}
		k = n
	}
	if k == 0 {
		k = 1
	}
	cms := make([]*dlt.CostModel, k)
	for j := range cms {
		var err error
		if len(c.ShardNodeCosts) > 0 {
			cms[j], err = dlt.NewCostModel(c.ShardNodeCosts[j])
		} else {
			cj := c
			cj.Shards, cj.ShardNodes, cj.ShardNodeCosts, cj.Placement = 0, nil, nil, nil
			if len(c.ShardNodes) > 0 {
				cj.N = c.ShardNodes[j]
			}
			cj.HeteroSeed = c.HeteroSeed + uint64(j)
			cms[j], err = cj.CostModel()
		}
		if err != nil {
			return nil, fmt.Errorf("driver: shard %d: %w", j, err)
		}
	}
	return cms, nil
}

// ShardConfigs assembles the shards the configuration describes: per cost
// model of ShardPlan, a cluster with the configured policy, partitioner and
// observer. It is the one shard-building path of Run, rtdls.New and
// rtdls.CostModelFor; the live service sets each shard's MaxQueue on top.
func (c Config) ShardConfigs() ([]pool.ShardConfig, error) {
	cms, err := c.ShardPlan()
	if err != nil {
		return nil, err
	}
	pol, err := rt.ParsePolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	shards := make([]pool.ShardConfig, len(cms))
	for j, cm := range cms {
		part, err := PartitionerFor(c.Algorithm, c.Rounds, cm)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.NewHetero(cm.Costs())
		if err != nil {
			return nil, err
		}
		shards[j] = pool.ShardConfig{Cluster: cl, Policy: pol, Partitioner: part, Observer: c.Observer}
	}
	return shards, nil
}

// shardExecTime returns E(σ, shard): the execution time of a load σ on the
// whole shard, generalised to heterogeneous shard cost tables.
func shardExecTime(cm *dlt.CostModel, sigma float64) (float64, error) {
	if cm.Uniform() {
		return cm.Reference().ExecTime(sigma, cm.N()), nil
	}
	return dlt.HeteroExecTime(cm.Costs(), sigma)
}

// loadScale keeps SystemLoad's meaning — the fraction of the fleet's
// aggregate capacity the stream offers — on a pool: the one-cluster
// arrival rate SystemLoad/eRef, with eRef = E(Avgσ, N) on the reference
// coefficients, is multiplied by Σ_j eRef/E(Avgσ, shard j) (= K for
// identical shards).
func loadScale(eRef, avgSigma float64, shards []*dlt.CostModel) (float64, error) {
	scale := 0.0
	for j, cm := range shards {
		ej, err := shardExecTime(cm, avgSigma)
		if err != nil {
			return 0, fmt.Errorf("driver: shard %d exec time: %w", j, err)
		}
		scale += eRef / ej
	}
	return scale, nil
}
