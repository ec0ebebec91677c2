package pool_test

import (
	"context"
	"math"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/driver"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/workload"
)

// record is one admission decision captured from a reference run.
type record struct {
	accepted   bool
	est        float64
	nodes      int
	firstStart float64
}

// recorder captures per-task decisions through the legacy observer hooks.
type recorder struct {
	decisions map[int64]record
	order     []int64
}

func newRecorder() *recorder { return &recorder{decisions: make(map[int64]record)} }

func (r *recorder) OnAccept(_ float64, t *rt.Task, p *rt.Plan) {
	r.decisions[t.ID] = record{accepted: true, est: p.Est, nodes: len(p.Nodes), firstStart: p.FirstStart()}
	r.order = append(r.order, t.ID)
}

func (r *recorder) OnReject(_ float64, t *rt.Task) {
	r.decisions[t.ID] = record{}
	r.order = append(r.order, t.ID)
}

func (r *recorder) OnCommit(float64, *rt.Plan) {}

// TestPoolReproducesIndependentSimulations is the sharding acceptance
// property: a K-shard pool of identical clusters under RoundRobin, fed K
// workload streams in lockstep (stream j's tasks land on shard j), makes
// exactly the decisions K independent single-cluster simulations make —
// the pool layer adds routing, not behaviour.
func TestPoolReproducesIndependentSimulations(t *testing.T) {
	const (
		k       = 3
		n       = 8
		horizon = 2e5
		load    = 0.9
	)
	for _, alg := range []string{driver.AlgDLTIIT, driver.AlgOPRMN, driver.AlgUserSplit} {
		t.Run(alg, func(t *testing.T) {
			cfg := driver.Default()
			cfg.N = n
			cfg.Algorithm = alg
			cfg.SystemLoad = load
			cfg.Horizon = horizon

			// Reference: K independent single-cluster simulations.
			recs := make([]*recorder, k)
			for j := 0; j < k; j++ {
				c := cfg
				c.Seed = uint64(100 + j)
				recs[j] = newRecorder()
				c.Observer = recs[j]
				if _, err := driver.Run(c); err != nil {
					t.Fatalf("reference run %d: %v", j, err)
				}
			}

			// Regenerate the same K task streams the runs consumed.
			streams := make([][]*rt.Task, k)
			minLen := math.MaxInt
			for j := 0; j < k; j++ {
				gen, err := workload.New(workload.Config{
					N: n, Params: cfg.Params(),
					SystemLoad: load, AvgSigma: cfg.AvgSigma,
					DCRatio: cfg.DCRatio, Horizon: horizon, Seed: uint64(100 + j),
				})
				if err != nil {
					t.Fatal(err)
				}
				for {
					task, ok := gen.Next()
					if !ok {
						break
					}
					streams[j] = append(streams[j], task)
				}
				if len(streams[j]) < minLen {
					minLen = len(streams[j])
				}
				if len(streams[j]) != len(recs[j].order) {
					t.Fatalf("stream %d: regenerated %d tasks, reference decided %d",
						j, len(streams[j]), len(recs[j].order))
				}
			}
			if minLen < 30 {
				t.Fatalf("streams too short (%d) to be meaningful", minLen)
			}

			// Pool: K identical shards, round robin, lockstep submission so
			// stream j lands on shard j. (Round robin routes by sequence
			// number, so streams beyond the shortest one are compared over
			// the common prefix — decisions never depend on later arrivals.)
			shards := make([]pool.ShardConfig, k)
			for j := range shards {
				cl, err := cluster.New(n, cfg.Params())
				if err != nil {
					t.Fatal(err)
				}
				part, err := driver.PartitionerFor(cfg.Algorithm, cfg.Rounds, nil)
				if err != nil {
					t.Fatal(err)
				}
				shards[j] = pool.ShardConfig{Cluster: cl, Policy: rt.EDF, Partitioner: part}
			}
			p, err := pool.New(pool.Config{Shards: shards, Placement: pool.RoundRobin{}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			ctx := context.Background()
			for i := 0; i < minLen; i++ {
				for j := 0; j < k; j++ {
					task := streams[j][i]
					d, err := p.Submit(ctx, *task)
					if err != nil {
						t.Fatalf("stream %d task %d: %v", j, task.ID, err)
					}
					if d.Shard != j {
						t.Fatalf("stream %d task %d placed on shard %d", j, task.ID, d.Shard)
					}
					want := recs[j].decisions[task.ID]
					if d.Accepted != want.accepted {
						t.Fatalf("%s stream %d task %d: pool accepted=%v, simulation accepted=%v",
							alg, j, task.ID, d.Accepted, want.accepted)
					}
					if !d.Accepted {
						continue
					}
					if math.Float64bits(d.Est) != math.Float64bits(want.est) || len(d.Nodes) != want.nodes {
						t.Fatalf("%s stream %d task %d: pool plan (est %v, %d nodes) != simulation (est %v, %d nodes)",
							alg, j, task.ID, d.Est, len(d.Nodes), want.est, want.nodes)
					}
					first := math.Inf(1)
					for _, s := range d.Starts {
						first = math.Min(first, s)
					}
					if math.Float64bits(first) != math.Float64bits(want.firstStart) {
						t.Fatalf("%s stream %d task %d: first start %v != %v",
							alg, j, task.ID, first, want.firstStart)
					}
				}
			}

			// Shard counters must match the reference decisions over the
			// compared prefix, and draining must commit every accept.
			if err := p.Drain(); err != nil {
				t.Fatal(err)
			}
			for j, ss := range p.ShardStats() {
				wantAcc := 0
				for i := 0; i < minLen; i++ {
					if recs[j].decisions[streams[j][i].ID].accepted {
						wantAcc++
					}
				}
				if ss.Arrivals != minLen || ss.Accepts != wantAcc {
					t.Fatalf("shard %d stats %+v, want %d arrivals / %d accepts", j, ss, minLen, wantAcc)
				}
				if ss.Commits != ss.Accepts || ss.QueueLen != 0 {
					t.Fatalf("shard %d drain incomplete: %+v", j, ss)
				}
			}
		})
	}
}
