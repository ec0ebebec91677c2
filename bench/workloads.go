package main

import (
	"fmt"
	"math"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/driver"
	"rtdls/internal/metrics"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/server"
	"rtdls/internal/service"
	"rtdls/internal/verify"
	"rtdls/internal/workload"
)

// The paper's baseline cluster and task-size parameters (Sec. 5.1); every
// workload uses them, so the traffic knobs that differ are SystemLoad,
// DCRatio and the fleet shape.
var baseParams = dlt.Params{Cms: 1, Cps: 100}

const (
	avgSigma  = 200
	algorithm = driver.AlgDLTIIT
)

// spec describes one workload. A cycle replays `streams` seeded sub-streams,
// each on a fresh engine: `warm` untimed tasks (set-up, until the queue
// depth has plateaued) and then `body` timed ones. Sizes are at -scale 1.
type spec struct {
	name, why string

	nodes    int // per shard
	shards   int // 0: a plain service.Service; else a pool.Pool with Spillover
	maxQueue int
	load     float64 // SystemLoad over the whole fleet
	dcRatio  float64

	wire bool // through server.Handler() over loopback HTTP
	sim  bool // rtdls.Simulate over all five algorithms; body is a horizon

	streams    int
	warm, body int
}

// fleet is the node count the stream is calibrated against.
func (sp spec) fleet() int { return sp.nodes * max(sp.shards, 1) }

var specs = []spec{
	{
		name: "shallow", why: "paper baseline, queue of about 1: fixed per-submit cost dominates; replan work must show no change here",
		nodes: 16, load: 0.5, dcRatio: 2, streams: 4, warm: 2000, body: 110000,
	},
	{
		name: "deep-edf", why: "88% accepted with a steady queue of about 45: the accept-heavy whole-queue replan (ROADMAP 2a, 2b)",
		nodes: 16, load: 1.2, dcRatio: 50, streams: 4, warm: 1500, body: 6000,
	},
	{
		name: "big-fleet", why: "1024 nodes and a queue of about 1: any cost that grows with N is overhead outside Plan",
		nodes: 1024, load: 0.5, dcRatio: 100, streams: 4, warm: 500, body: 2600,
	},
	{
		name: "overload-spill", why: "4x8 spillover pool at 20x load: reject-heavy replans repeated on every shard (ROADMAP 2c)",
		nodes: 8, shards: 4, maxQueue: 64, load: 20, dcRatio: 30, streams: 4, warm: 1000, body: 2500,
	},
	{
		name: "wire-shallow", why: "the 4x8 pool behind loopback HTTP at low load: JSON, middleware, metrics and net/http dominate",
		nodes: 8, shards: 4, maxQueue: 64, load: 0.5, dcRatio: 10, wire: true, streams: 4, warm: 500, body: 8000,
	},
	{
		name: "wire-overload", why: "the overload-spill stream over loopback HTTP: the wire-smoke regime with reproducible traffic",
		nodes: 8, shards: 4, maxQueue: 64, load: 20, dcRatio: 30, wire: true, streams: 4, warm: 1000, body: 2500,
	},
	{
		name: "paper-sim", why: "rtdls.Simulate over all five partitioners: the driver/sim loop and the only cover for the non-default algorithms",
		nodes: 16, load: 1.0, dcRatio: 2, sim: true, streams: 2, warm: 3000000, body: 60000000,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// streamSeed derives sub-stream i's generator seed from the run seed.
// overload-spill and wire-overload share it, so they see the same tasks.
func streamSeed(seed uint64, i int) uint64 { return seed*1000003 + uint64(i) }

// genStream draws the first n tasks of the workload's seeded stream.
func genStream(sp spec, seed uint64, n int) ([]rt.Task, error) {
	g, err := workload.New(workload.Config{
		N: sp.fleet(), Params: baseParams,
		SystemLoad: sp.load, AvgSigma: avgSigma, DCRatio: sp.dcRatio,
		Horizon: math.MaxFloat64, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	tasks := make([]rt.Task, n)
	for i := range tasks {
		t, ok := g.Next()
		if !ok {
			return nil, fmt.Errorf("stream ended after %d of %d tasks", i, n)
		}
		tasks[i] = *t
		tasks[i].ID++ // ids from 1: a zero id vanishes from the wire form
	}
	return tasks, nil
}

// built is one freshly assembled engine with the handles the correctness
// gate and the per-layer counts read.
type built struct {
	eng      server.Engine
	clock    *service.ManualClock
	svc      *service.Service // plain service workloads
	pool     *pool.Pool       // pool workloads
	checkers []*verify.Checker
}

func (b *built) shardStats() []service.Stats {
	if b.pool != nil {
		return b.pool.ShardStats()
	}
	return []service.Stats{b.svc.Stats()}
}

func (b *built) spillovers() int {
	if b.pool != nil {
		return b.pool.Spillovers()
	}
	return 0
}

// build assembles the workload's engine the way rtdls.New does
// (cluster.NewHetero + driver.PartitionerFor + service.New / pool.New) on a
// manual clock the benchmark owns. With a tracer the partitioner and the
// placement are decorated and every shard gets a verify.Checker observer;
// with a registry the engine is instrumented as dlserve instruments it.
func build(sp spec, tr *tracer, reg *metrics.Registry) (*built, error) {
	b := &built{clock: service.NewManualClock(0)}
	met := service.NewMetrics(reg)
	shard := func() (*cluster.Cluster, rt.Partitioner, rt.Observer, error) {
		cm, err := dlt.UniformCosts(baseParams, sp.nodes)
		if err != nil {
			return nil, nil, nil, err
		}
		part, err := driver.PartitionerFor(algorithm, 0, cm)
		if err != nil {
			return nil, nil, nil, err
		}
		cl, err := cluster.NewHetero(cm.Costs())
		if err != nil {
			return nil, nil, nil, err
		}
		if tr == nil {
			return cl, part, nil, nil
		}
		ck := verify.NewCheckerCosts(cm)
		b.checkers = append(b.checkers, ck)
		return cl, tracePartitioner(part, tr), ck, nil
	}
	if sp.shards == 0 {
		cl, part, obs, err := shard()
		if err != nil {
			return nil, err
		}
		b.svc, err = service.New(service.Config{
			Cluster: cl, Policy: rt.EDF, Partitioner: part,
			Clock: b.clock, Observer: obs, MaxQueue: sp.maxQueue, Metrics: met,
		})
		if err != nil {
			return nil, err
		}
		b.eng = b.svc
	} else {
		shards := make([]pool.ShardConfig, sp.shards)
		for j := range shards {
			cl, part, obs, err := shard()
			if err != nil {
				return nil, err
			}
			shards[j] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: part,
				MaxQueue: sp.maxQueue, Observer: obs}
		}
		var place pool.Placement = pool.Spillover{}
		if tr != nil {
			place = tracedPlacement{place, tr}
		}
		var err error
		b.pool, err = pool.New(pool.Config{Shards: shards, Placement: place, Clock: b.clock, Metrics: met})
		if err != nil {
			return nil, err
		}
		b.eng = b.pool
	}
	if tr != nil {
		b.eng = tracedEngine{b.eng, tr}
	}
	return b, nil
}
