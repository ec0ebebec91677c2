package rtdls

import (
	"rtdls/internal/cluster"
	"rtdls/internal/core"
	"rtdls/internal/dlt"
	"rtdls/internal/driver"
	"rtdls/internal/experiments"
	"rtdls/internal/gantt"
	"rtdls/internal/multiround"
	"rtdls/internal/rt"
	"rtdls/internal/trace"
	"rtdls/internal/verify"
	"rtdls/internal/workload"
)

// Version identifies this release of the library. 2.0.0 redesigned the
// public API around the long-lived rtdls.Service (see New, Submit,
// Subscribe). 2.1.0 sharded the service into a multi-cluster admission
// pool with a pluggable placement layer (WithShards, WithPlacement).
// 3.0.0 put the service on the wire — the dlserve HTTP/JSON front end and
// the dlload load harness, with the wire-stable Reason enum and Code
// status mapping — and removed the deprecated 1.x Config/Run/RunSeries
// batch shims (use Simulate/SimulateSeries with BaselineWorkload).
// 3.1.0 added the end-to-end observability layer (NewMetricsRegistry,
// WithMetrics, Accepting; /metrics exposition, per-stage admission
// timing, structured request logs and pprof wiring in dlserve).
// 3.2.0 made the fleet dynamic: node drain, fail and restore, and AddNode,
// with committed-plan re-validation and typed displacement (ErrDisplaced,
// EventDisplace), the node admin API and node_states in dlserve, and the
// scriptable churn schedule (ParseChurnSchedule, WithChurn, -churn) with
// fleet metrics in the exposition and in BENCH_wire.json.
// 3.3.0 made admission cost sub-linear in the fleet size: the scheduler's
// availability view became a base-synced order-statistic index with a
// sound infeasibility fast-reject ahead of planning (decision stream
// proven bit-for-bit unchanged), per-submit cost flat from 100 to 10,000
// nodes and ratio-gated in CI (make bench-gate).
// 3.4.0 made admission optimistically concurrent: submissions plan
// against an epoch-stamped snapshot outside the shard lock and install
// under it only after an epoch check, falling back to the serialized
// path on conflict (a Service toggle, on by default), so the
// decision stream stays bit-identical to serialized execution while
// low-conflict traffic scales with submitters — measured in CI by
// make bench-gate, with speculative/conflict counters in Stats, /metrics
// and BENCH_wire.json.
// Speculation engages only while submitters overlap on a shard; a lone
// submitter decides on the live state under the lock.
// 4.0.0 removed the last deprecated symbol, the root NewScheduler with its
// Scheduler alias (use New with WithCosts/WithPolicy/WithAlgorithm; commits
// happen automatically), and made every /metrics family a scrape-time read
// of the Stats counters.
// 5.0.0 put one engine behind New and Simulate: both always build a pool,
// K = 1 by default, and the one-shard accessors Cluster and Costs are gone
// (use Clusters()[0] and ShardCosts()[0]). With every node down a
// submission is a counted infeasible reject at every K.
// 6.0.0 made SetNodeState(node, NodeDraining|NodeDown|NodeUp) the one
// node-lifecycle call, replacing the three per-verb methods, and ChurnOp
// carries the node state it sets (State) instead of an action kind.
// 6.1.0 made Service the pool itself rather than a forwarding wrapper, so
// its Exec and Placement methods are now visible.
// 7.0.0 deleted optimistic admission: every submit decides under its
// shard's lock. The speculation toggle, the
// rtdls_admission_{speculative,conflicts}_total families and dlload's
// speculative/conflicts/conflict_rate fields are gone, and
// Stats.Speculative/Conflicts always read 0.
const Version = "7.0.0"

// Params holds the cluster's linear cost coefficients: Cms is the time to
// transmit one unit of load from the head node to a processing node, Cps
// the time to process one unit on a node.
type Params = dlt.Params

// NodeCost holds one node's own linear cost coefficients (Cms_i, Cps_i)
// for heterogeneous clusters.
type NodeCost = dlt.NodeCost

// CostModel is an immutable per-node cost table; a uniform table
// reproduces the homogeneous scalar-Params behaviour bit for bit.
type CostModel = dlt.CostModel

// NewCostModel builds a per-node cost model (indexed by node id).
func NewCostModel(costs []NodeCost) (*CostModel, error) { return dlt.NewCostModel(costs) }

// UniformCosts returns the cost model of a homogeneous cluster of n nodes
// with scalar coefficients p.
func UniformCosts(p Params, n int) (*CostModel, error) { return dlt.UniformCosts(p, n) }

// SpreadCosts generates a deterministic heterogeneous cost table around
// the scalar reference p: log-uniform per-node draws within the given
// spread factors (≤ 1 keeps a coefficient homogeneous).
func SpreadCosts(n int, p Params, cmsSpread, cpsSpread float64, seed uint64) ([]NodeCost, error) {
	return driver.SpreadCosts(n, p, cmsSpread, cpsSpread, seed)
}

// HeteroAlphas returns the optimal single-round partition for
// simultaneously available heterogeneous nodes in dispatch order.
func HeteroAlphas(costs []NodeCost) ([]float64, error) { return dlt.HeteroAlphas(costs) }

// HeteroExecTime returns the optimal single-round execution time of a load
// σ on simultaneously available heterogeneous nodes — the generalisation
// of E(σ,n).
func HeteroExecTime(costs []NodeCost, sigma float64) (float64, error) {
	return dlt.HeteroExecTime(costs, sigma)
}

// Task is a real-time arbitrarily divisible task T = (A, σ, D).
type Task = rt.Task

// Plan is a task's resource assignment: nodes, start times, load fractions
// and the admission estimate.
type Plan = rt.Plan

// Policy selects the task execution order (EDF or FIFO).
type Policy = rt.Policy

// Execution-order policies.
const (
	FIFO = rt.FIFO
	EDF  = rt.EDF
)

// ParsePolicy parses "edf" or "fifo", in any letter case, into a Policy.
func ParsePolicy(s string) (Policy, error) { return rt.ParsePolicy(s) }

// Algorithm identifiers accepted by Config.Algorithm.
const (
	AlgDLTIIT    = driver.AlgDLTIIT    // this paper: DLT partitioning utilising IITs
	AlgOPRMN     = driver.AlgOPRMN     // baseline: optimal partition, min nodes, no IITs
	AlgOPRAN     = driver.AlgOPRAN     // baseline: always all N nodes
	AlgUserSplit = driver.AlgUserSplit // manual equal split, user-chosen node count
	AlgDLTMR     = driver.AlgDLTMR     // multi-round extension (paper Sec. 6)
)

// Algorithms lists every supported algorithm identifier.
func Algorithms() []string { return driver.Algorithms() }

// Result carries one run's admission and execution metrics. Simulate and
// SimulateSeries return it; the deprecated 1.x Config/Run/RunSeries batch
// shims that used to produce it were removed in 3.0.0. Its pool fields
// (Shards, Placement, Spillovers, ShardRejectRatios) are filled on every
// run, the default one-shard run included.
type Result = driver.Result

// Cluster models the homogeneous star cluster (head node, N workers,
// per-node release times and accounting).
type Cluster = cluster.Cluster

// NewCluster returns a homogeneous cluster of n processing nodes, all
// available at time 0.
func NewCluster(n int, p Params) (*Cluster, error) { return cluster.New(n, p) }

// NewHeteroCluster returns a cluster whose node i has its own cost
// coefficients costs[i], all available at time 0.
func NewHeteroCluster(costs []NodeCost) (*Cluster, error) { return cluster.NewHetero(costs) }

// Partitioner is the task-partitioning module interface (framework
// Decision #2/#3).
type Partitioner = rt.Partitioner

// Model is the paper's heterogeneous cluster model for one task: Eqs. 1–2
// construction, the α partition (Eqs. 4–5), Ê (Eq. 6) and the completion
// estimate (Eq. 7) with the Theorem-4 guarantee.
type Model = core.Model

// NewModel constructs the heterogeneous model for a task of the given data
// size over processors with the given available times.
func NewModel(p Params, sigma float64, avail []float64) (*Model, error) {
	return core.New(p, sigma, avail)
}

// NewHeteroModel constructs the availability-transformation model over an
// already-heterogeneous node set: costs[i] are node i's own coefficients
// and avail[i] its available time (the slices are sorted together).
func NewHeteroModel(costs []NodeCost, sigma float64, avail []float64) (*Model, error) {
	return core.NewHetero(costs, sigma, avail)
}

// MinNodesBound returns ñ_min = ⌈ln γ / ln β⌉, the paper's upper bound on
// the nodes required to finish a load σ within the slack.
func MinNodesBound(p Params, sigma, slack float64) (n int, ok bool) {
	return dlt.MinNodesBound(p, sigma, slack)
}

// WorkloadConfig parameterises the synthetic task generator of the
// evaluation (Poisson arrivals, σ ~ N(Avgσ,Avgσ) truncated positive,
// deadlines via DCRatio).
type WorkloadConfig = workload.Config

// Generator produces a deterministic task stream for a workload
// configuration.
type Generator = workload.Generator

// NewGenerator returns a workload generator.
func NewGenerator(cfg WorkloadConfig) (*Generator, error) { return workload.New(cfg) }

// TraceRing records per-task scheduling lifecycle events; install one via
// WithObserver.
type TraceRing = trace.Ring

// NewTraceRing returns a lifecycle recorder keeping the last capacity
// records.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// GanttCollector records committed node occupation and renders ASCII
// timelines that make inserted idle time visible; install it via
// WithObserver.
type GanttCollector = gantt.Collector

// NewGanttCollector returns a timeline collector for a cluster of n nodes.
func NewGanttCollector(n int) *GanttCollector { return gantt.NewCollector(n) }

// Dispatch is the exact single-round sequential dispatch timeline of a
// partitioned load.
type Dispatch = dlt.Dispatch

// SimulateDispatch computes the exact timeline of sequentially
// transmitting a load σ, partitioned by alphas, to nodes with the given
// (sorted) available times.
func SimulateDispatch(p Params, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	return dlt.SimulateDispatch(p, sigma, avail, alphas)
}

// SimulateDispatchHetero is SimulateDispatch with per-node cost
// coefficients (costs, avail and alphas parallel, in dispatch order).
func SimulateDispatchHetero(costs []NodeCost, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	return dlt.SimulateDispatchHetero(costs, sigma, avail, alphas)
}

// OutputDispatch extends Dispatch with result collection over the shared
// link (the paper's Sec. 3 output-transfer extension).
type OutputDispatch = dlt.OutputDispatch

// SimulateDispatchWithOutput additionally models each node returning a
// result of size delta·αᵢ·σ over the same sequential link.
func SimulateDispatchWithOutput(p Params, sigma, delta float64, avail, alphas []float64) (*OutputDispatch, error) {
	return dlt.SimulateDispatchWithOutput(p, sigma, delta, avail, alphas)
}

// Verifier independently re-validates a run's invariants (no node overlap,
// Theorem-4 estimate safety, no deadline misses); install it via
// WithObserver and inspect OK()/Report().
type Verifier = verify.Checker

// NewVerifier returns a run verifier for a homogeneous cluster of n nodes.
func NewVerifier(p Params, n int) *Verifier { return verify.NewChecker(p, n) }

// NewVerifierCosts returns a run verifier that re-checks dispatches
// against a per-node cost model.
func NewVerifierCosts(cm *CostModel) *Verifier { return verify.NewCheckerCosts(cm) }

// MultiRoundSchedule exposes the multi-round dispatch timeline of the
// paper's future-work extension for analysis.
func MultiRoundSchedule(p Params, sigma float64, avail, totals []float64, rounds int) (finish []float64, completion float64, err error) {
	tl, err := multiround.Schedule(p, sigma, avail, totals, rounds)
	if err != nil {
		return nil, 0, err
	}
	return tl.Finish, tl.Completion, nil
}

// Panel is one evaluation figure panel; AllPanels enumerates the paper's
// complete figure inventory.
type Panel = experiments.Panel

// PanelResult is an executed panel with per-load reject-ratio summaries.
type PanelResult = experiments.PanelResult

// PanelOptions controls panel execution scale (horizon, runs, workers).
type PanelOptions = experiments.Options

// AllPanels returns every evaluation panel (Figures 3–16 plus extensions).
func AllPanels() []Panel { return experiments.AllPanels() }

// RunPanel executes one panel sweep in parallel.
func RunPanel(p Panel, o PanelOptions) (*PanelResult, error) { return experiments.Run(p, o) }

// DefaultPanelOptions returns laptop-scale defaults; use
// PanelOptions{Horizon: 1e7, Runs: 10} for the paper's full scale.
func DefaultPanelOptions() PanelOptions { return experiments.DefaultOptions() }
