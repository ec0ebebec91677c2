// Package driver replays a synthetic workload through the admission
// engine: a workload generator feeds arrivals into a pool.Pool on a
// ManualClock (one shard by default, K with the shard options), Run's
// merge loop moves the clock through arrivals, churn ops and commit
// instants, and the run's admission and execution metrics are collected
// into a Result. Run is deliberately a thin adapter: the schedulability
// test, commit processing and metric accumulation all live in the shards,
// so the simulated engine is the same one a deployment drives under
// wall-clock time.
package driver

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/fleet"
	"rtdls/internal/multiround"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
	"rtdls/internal/workload"
)

// Algorithm names accepted by Config.Algorithm.
const (
	AlgDLTIIT    = "dlt-iit"    // this paper: DLT partitioning utilising IITs
	AlgOPRMN     = "opr-mn"     // [22] baseline: optimal partition, min nodes, no IITs
	AlgOPRAN     = "opr-an"     // [22]: always all N nodes
	AlgUserSplit = "user-split" // manual equal split, user-chosen node count
	AlgDLTMR     = "dlt-mr"     // multi-round extension of dlt-iit (paper §6)
)

// Algorithms lists every supported algorithm name.
func Algorithms() []string {
	return []string{AlgDLTIIT, AlgOPRMN, AlgOPRAN, AlgUserSplit, AlgDLTMR}
}

// Config fully specifies one simulation run. The zero value is not usable;
// see Default for the paper's baseline.
type Config struct {
	N          int     // processing nodes
	Cms        float64 // unit transmission cost (reference when heterogeneous)
	Cps        float64 // unit processing cost (reference when heterogeneous)
	Policy     string  // "edf" or "fifo"
	Algorithm  string  // one of the Alg* constants
	SystemLoad float64
	AvgSigma   float64
	DCRatio    float64
	Horizon    float64 // arrival window; the run drains remaining work after it
	Seed       uint64
	Rounds     int // dispatch rounds for AlgDLTMR (default 2)

	// NodeCosts optionally gives every node its own cost coefficients
	// (len must equal N). A uniform table reproduces the scalar Cms/Cps
	// run bit for bit; a non-uniform one switches every partitioner to the
	// heterogeneous path. When set, the workload is calibrated against the
	// table's reference (mean) coefficients instead of Cms/Cps.
	NodeCosts []dlt.NodeCost

	// CmsSpread and CpsSpread, when > 1 and NodeCosts is empty, generate a
	// deterministic per-node cost table around (Cms, Cps): each node's
	// coefficient is drawn log-uniformly from [x/√s, x·√s], preserving the
	// geometric mean. The workload stays calibrated against the scalar
	// Cms/Cps so a spread sweep holds the offered load constant. 0 or 1
	// leaves the corresponding coefficient homogeneous.
	CmsSpread float64
	CpsSpread float64
	// HeteroSeed seeds the spread draw (independent of the workload Seed,
	// so paired-seed runs share one cluster).
	HeteroSeed uint64

	// Shards splits the fleet into K independent clusters fronted by the
	// Placement routing layer (see internal/pool); 0 means one. Every run
	// goes through the pool, and one shard is the paper's classic cluster.
	// With K > 1 the workload's arrival rate scales with the pool's
	// aggregate capacity so SystemLoad keeps its meaning (see loadScale).
	Shards int

	// Placement routes each arrival to a shard; nil defaults to round
	// robin. Parse names with pool.ParsePlacement.
	Placement pool.Placement

	// ShardNodes optionally sizes each shard individually (len fixes the
	// shard count); unset shards copy N.
	ShardNodes []int

	// ShardNodeCosts optionally gives every shard its own explicit
	// per-node cost table (len fixes the shard count); it overrides
	// ShardNodes and the spread draw.
	ShardNodeCosts [][]dlt.NodeCost

	// Churn optionally scripts node drain/fail/restore operations into the
	// run (parse with fleet.ParseSchedule). Offsets are simulation time
	// units and must be finite and non-negative; Run's doc gives where an
	// op falls among commits and arrivals at its instant, so a churn run
	// is exactly as reproducible as a churn-free one. Tasks displaced by a
	// capacity loss keep their accept in the counters but never commit,
	// which relaxes the run invariant to
	// Committed + Displaced - Readmitted == Accepted.
	Churn fleet.Schedule

	Observer rt.Observer // optional lifecycle hooks
}

// Default returns the paper's baseline configuration (Sec. 5.1): N=16,
// Cms=1, Cps=100, Avgσ=200, DCRatio=2, EDF-DLT, horizon 10⁷.
func Default() Config {
	return Config{
		N: 16, Cms: 1, Cps: 100,
		Policy: "edf", Algorithm: AlgDLTIIT,
		SystemLoad: 0.5, AvgSigma: 200, DCRatio: 2,
		Horizon: 1e7, Seed: 1,
	}
}

// Params returns the scalar reference cost parameters.
func (c Config) Params() dlt.Params { return dlt.Params{Cms: c.Cms, Cps: c.Cps} }

// CostModel resolves the per-node cost table the run executes against:
// NodeCosts verbatim when given, a spread-generated table when CmsSpread
// or CpsSpread exceeds 1, and the uniform scalar model otherwise.
func (c Config) CostModel() (*dlt.CostModel, error) {
	for _, s := range []float64{c.CmsSpread, c.CpsSpread} {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return nil, fmt.Errorf("driver: invalid cost spread %v: %w", s, errs.ErrBadConfig)
		}
	}
	if len(c.NodeCosts) > 0 {
		if len(c.NodeCosts) != c.N {
			return nil, fmt.Errorf("driver: %d node costs for N=%d nodes: %w", len(c.NodeCosts), c.N, errs.ErrBadConfig)
		}
		return dlt.NewCostModel(c.NodeCosts)
	}
	if c.CmsSpread > 1 || c.CpsSpread > 1 {
		costs, err := SpreadCosts(c.N, c.Params(), c.CmsSpread, c.CpsSpread, c.HeteroSeed)
		if err != nil {
			return nil, err
		}
		return dlt.NewCostModel(costs)
	}
	return dlt.UniformCosts(c.Params(), c.N)
}

// SpreadCosts generates a deterministic heterogeneous cost table around
// the scalar reference p: node i's Cms is drawn log-uniformly from
// [Cms/√s, Cms·√s] with s = cmsSpread (likewise Cps with cpsSpread), so
// the per-node geometric mean stays at the reference. A spread ≤ 1 leaves
// that coefficient at its reference value; the same seed always yields the
// same table.
func SpreadCosts(n int, p dlt.Params, cmsSpread, cpsSpread float64, seed uint64) ([]dlt.NodeCost, error) {
	if n < 1 {
		return nil, fmt.Errorf("driver: SpreadCosts needs n >= 1, got %d: %w", n, errs.ErrBadConfig)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for _, s := range []float64{cmsSpread, cpsSpread} {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return nil, fmt.Errorf("driver: invalid spread %v: %w", s, errs.ErrBadConfig)
		}
	}
	rng := rand.New(rand.NewPCG(seed^0xa076_1d64_78bd_642f, seed+0xe703_7ed1_a0b4_28db))
	costs := make([]dlt.NodeCost, n)
	draw := func(ref, spread float64) float64 {
		if spread <= 1 {
			return ref
		}
		// log-uniform over [ref/√spread, ref·√spread]
		u := rng.Float64() - 0.5
		return ref * math.Exp(u*math.Log(spread))
	}
	for i := range costs {
		costs[i] = dlt.NodeCost{
			Cms: draw(p.Cms, cmsSpread),
			Cps: draw(p.Cps, cpsSpread),
		}
	}
	return costs, nil
}

// Result aggregates one run's metrics.
type Result struct {
	Config Config

	Arrivals int
	Accepted int
	Rejected int
	// RejectRatio = Rejected/Arrivals, the paper's evaluation metric.
	RejectRatio float64

	Committed int
	// MeanResponse is the mean actual completion − arrival over committed
	// tasks; MeanNodes the mean assigned node count.
	MeanResponse float64
	MeanNodes    float64
	// MaxLateness is max(actual completion − absolute deadline) over
	// committed tasks. The real-time guarantee requires it to be ≤ 0.
	MaxLateness float64
	// MeanEstSlack is the mean (estimate − actual completion): how
	// conservative the Theorem-4 estimate was in practice.
	MeanEstSlack float64

	Utilization      float64 // busy node·time / (N × span)
	ReservedIdleFrac float64 // wasted IIT node·time / (N × span), OPR only
	MaxQueueLen      int
	Span             float64 // max(horizon, last committed release)

	// Shards is the number of clusters the run executed on (1 = the
	// paper's classic cluster), Placement names the routing layer,
	// Spillovers counts accepted tasks that needed at least one spillover
	// retry, and ShardRejectRatios is each shard's own reject ratio (a
	// spilled-over task counts at every shard that refused it). Every run
	// fills them, one shard included.
	Shards            int       `json:",omitempty"`
	Placement         string    `json:",omitempty"`
	Spillovers        int       `json:",omitempty"`
	ShardRejectRatios []float64 `json:",omitempty"`

	// Fleet-churn accounting, populated only when Config.Churn is set:
	// Displaced counts accepted tasks that lost their seat to a node
	// drain/fail, Readmitted how many of those a pool re-seated on another
	// shard, and LateCommits how many committed tasks finished past their
	// deadline (must stay 0 — displacement, not lateness, is how the model
	// sheds load).
	Displaced   int `json:",omitempty"`
	Readmitted  int `json:",omitempty"`
	LateCommits int `json:",omitempty"`
}

// PartitionerFor builds the partitioner named by algorithm; rounds applies
// to AlgDLTMR (0 = the default of 2). cm is not read: partitioners take
// per-node costs at plan time via rt.PlanContext. This is the one
// constructor path the service options share with the bench.
func PartitionerFor(algorithm string, rounds int, cm *dlt.CostModel) (rt.Partitioner, error) {
	switch algorithm {
	case AlgDLTIIT:
		return rt.IITDLT{}, nil
	case AlgOPRMN:
		return rt.OPR{}, nil
	case AlgOPRAN:
		return rt.OPR{AllNodes: true}, nil
	case AlgUserSplit:
		return rt.UserSplit{}, nil
	case AlgDLTMR:
		if rounds == 0 {
			rounds = 2
		}
		return multiround.New(rounds)
	default:
		return nil, fmt.Errorf("driver: unknown algorithm %q (want one of %v): %w", algorithm, Algorithms(), errs.ErrBadConfig)
	}
}

// Run executes one simulation and returns its metrics. It is a thin
// adapter over the admission pool the configuration describes (one shard
// unless a shard option says otherwise) on a ManualClock that Run moves
// itself. Run merges two time-ordered inputs, the generator's arrivals
// and the sorted churn schedule. Before each op at time t it starts every
// transmission due at or before t, each at its own instant, so at one
// instant the order is:
//
//  1. the commits due then, in NextCommit order;
//  2. the churn ops, in schedule order;
//  3. the arrival.
//
// After the last op the waiting queue drains through its remaining
// commits. A churn offset that is negative or not finite is ErrBadConfig;
// a commit or arrival time that is not finite or lies before the clock
// fails the run. The Result is assembled from the pool's statistics.
func Run(cfg Config) (*Result, error) {
	churn := cfg.Churn.Sorted()
	for _, op := range churn {
		if math.IsNaN(op.At) || math.IsInf(op.At, 0) || op.At < 0 {
			return nil, fmt.Errorf("driver: churn %q: offset must be finite and non-negative: %w", op.String(), errs.ErrBadConfig)
		}
	}
	shards, err := cfg.ShardConfigs()
	if err != nil {
		return nil, err
	}
	clock := service.NewManualClock(0)
	eng, err := pool.New(pool.Config{Shards: shards, Placement: cfg.Placement, Clock: clock})
	if err != nil {
		return nil, err
	}
	// The pool's cost models are the ones the run actually schedules
	// against, rather than a second resolution of the configuration.
	costs := eng.ShardCosts()
	// The workload is calibrated against the scalar reference coefficients
	// so a heterogeneity sweep holds the offered load constant; explicit
	// cost tables anchor it to the (first shard's) table's own reference
	// instead.
	wp := cfg.Params()
	if len(cfg.NodeCosts) > 0 || len(cfg.ShardNodeCosts) > 0 {
		wp = costs[0].Reference()
	}
	// One cluster gets the classic stream of its own size, whatever its cost
	// table: a spread table's HeteroExecTime is not the scalar E(Avgσ, N)
	// the load is quoted in. A fleet's stream is scaled to its aggregate
	// capacity.
	n, load := cfg.N, cfg.SystemLoad
	if len(costs) == 1 {
		n = costs[0].N()
	} else {
		scale, err := loadScale(wp.ExecTime(cfg.AvgSigma, cfg.N), cfg.AvgSigma, costs)
		if err != nil {
			return nil, err
		}
		load *= scale
	}
	gen, err := workload.New(workload.Config{
		N: n, Params: wp,
		SystemLoad: load, AvgSigma: cfg.AvgSigma,
		DCRatio: cfg.DCRatio, Horizon: cfg.Horizon, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// setTime moves the clock to t; time never runs backwards.
	setTime := func(t float64) error {
		if now := clock.Now(); math.IsNaN(t) || math.IsInf(t, 0) || t < now {
			return fmt.Errorf("driver: event time %v is not finite or before the clock at %v", t, now)
		}
		clock.Set(t)
		return nil
	}
	// Each pass takes the earlier of the next churn op and the next arrival
	// (the op on a tie) at time t, after starting every transmission due at
	// or before t; the engine records the execution metrics from the exact
	// dispatch timelines. Once both inputs are spent, t is +Inf and the
	// waiting queue drains. A NaN commit time enters the commit loop and
	// setTime rejects it. One task and one decision carry every arrival: the
	// run reads neither after its submit, so neither costs an allocation.
	ctx := context.Background()
	var task rt.Task
	var dec service.Decision
	more := gen.NextInto(&task)
	for {
		isChurn := len(churn) > 0 && (!more || churn[0].At <= task.Arrival)
		t := math.Inf(1)
		if isChurn {
			t = churn[0].At
		} else if more {
			t = task.Arrival
		}
		for at, ok := eng.NextCommit(); ok && !(at > t); at, ok = eng.NextCommit() {
			if err := setTime(at); err != nil {
				return nil, err
			}
			if err := eng.Pump(); err != nil {
				return nil, err
			}
		}
		if !isChurn && !more {
			break
		}
		if err := setTime(t); err != nil {
			return nil, err
		}
		if !isChurn {
			if err := eng.SubmitTo(ctx, &task, &dec); err != nil {
				return nil, err
			}
			more = gen.NextInto(&task)
			continue
		}
		// On a pool a displaced task is offered to the other live shards
		// before it counts as lost, so re-admissions show up as Readmitted.
		op := churn[0]
		churn = churn[1:]
		if _, err := eng.SetNodeState(op.Node, op.State); err != nil {
			return nil, fmt.Errorf("driver: churn %q: %w", op.String(), err)
		}
	}

	st := eng.Stats()
	ex := eng.Exec()
	res := &Result{
		Config:      cfg,
		Arrivals:    st.Arrivals,
		Accepted:    st.Accepts,
		Rejected:    st.Rejects,
		Committed:   ex.Committed,
		MaxLateness: ex.MaxLateness,
		MaxQueueLen: st.MaxQueueLen,
		Shards:      len(costs),
		Displaced:   st.Displaced,
		Readmitted:  st.Readmitted,
		LateCommits: st.LateCommits,
	}
	if st.QueueLen != 0 {
		return nil, fmt.Errorf("driver: %d tasks still waiting after drain", st.QueueLen)
	}
	// Under churn an accepted task may be displaced instead of committed
	// (and, on a pool, re-seated — its commit then lands normally); without
	// churn both correction terms are zero and the identity collapses to
	// the classic committed == accepted.
	if res.Committed+res.Displaced-res.Readmitted != res.Accepted {
		return nil, fmt.Errorf("driver: %d committed + %d displaced - %d readmitted != %d accepted",
			res.Committed, res.Displaced, res.Readmitted, res.Accepted)
	}

	if res.Arrivals > 0 {
		res.RejectRatio = float64(res.Rejected) / float64(res.Arrivals)
	}
	if res.Committed > 0 {
		res.MeanResponse = ex.RespSum / float64(res.Committed)
		res.MeanEstSlack = ex.SlackSum / float64(res.Committed)
		res.MeanNodes = float64(ex.NodeSum) / float64(res.Committed)
	} else {
		res.MaxLateness = 0
	}
	res.Spillovers = eng.Spillovers()
	res.Placement = eng.Placement().Name()
	for _, ss := range eng.ShardStats() {
		res.ShardRejectRatios = append(res.ShardRejectRatios, ss.RejectRatio())
	}
	// The engine's statistics mirror its clusters' accounting bit for bit.
	totalN := 0
	for _, cm := range costs {
		totalN += cm.N()
	}
	res.Span = math.Max(cfg.Horizon, st.LastRelease)
	res.Utilization = st.BusyTime / (float64(totalN) * res.Span)
	res.ReservedIdleFrac = st.ReservedIdle / (float64(totalN) * res.Span)
	return res, nil
}
