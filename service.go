package rtdls

import (
	"fmt"
	"strings"

	"rtdls/internal/driver"
	"rtdls/internal/fleet"
	"rtdls/internal/metrics"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// Clock supplies a Service's notion of "now" in simulation time units; the
// same admission engine runs under wall-clock time or under a clock its
// caller moves (tests, replays, Simulate). Implementations must be safe
// for concurrent use.
type Clock = service.Clock

// ManualClock is an explicitly advanced, monotone Clock for tests and for
// callers that drive time themselves.
type ManualClock = service.ManualClock

// WallClock maps real time onto simulation time units — what a deployed
// admission-control service runs under.
type WallClock = service.WallClock

// NewManualClock returns a manual clock set to t.
func NewManualClock(t float64) *ManualClock { return service.NewManualClock(t) }

// NewWallClock returns a wall clock starting at 0 that advances scale
// simulation time units per real second (scale <= 0 defaults to 1).
func NewWallClock(scale float64) *WallClock { return service.NewWallClock(scale) }

// Decision is the outcome of one Submit: an admission carrying the plan's
// resource assignment, or a typed rejection. Reason is the wire-stable
// enum (ReasonInfeasible, ReasonDeadlinePast, ReasonBusy; ReasonNone when
// accepted) and remains errors.Is-matchable against ErrInfeasible,
// ErrDeadlinePast, ErrClusterBusy.
type Decision = service.Decision

// Event is one entry of the service's decision/lifecycle stream.
type Event = service.Event

// EventKind labels a lifecycle event: EventAccept, EventReject or
// EventCommit.
type EventKind = service.EventKind

// Lifecycle event kinds.
const (
	EventAccept = service.EventAccept
	EventReject = service.EventReject
	EventCommit = service.EventCommit
	// EventDisplace: an admitted-but-uncommitted task lost its seat to a
	// node drain/fail; Reason is ReasonNodeUnavailable. On a pool the task
	// may be re-admitted on another shard (a fresh EventAccept there).
	EventDisplace = service.EventDisplace
)

// NodeState is a node's lifecycle state in the fleet subsystem: NodeUp
// (placeable), NodeDraining (no new placements, committed work finishes)
// or NodeDown (capacity gone now).
type NodeState = service.NodeState

// Node lifecycle states.
const (
	NodeUp       = service.NodeUp
	NodeDraining = service.NodeDraining
	NodeDown     = service.NodeDown
)

// FleetResult reports the outcome of one fleet operation: the node, its
// new state, and how many waiting tasks were displaced and (pool only)
// re-admitted elsewhere.
type FleetResult = service.FleetResult

// ChurnSchedule is a declarative script of node drain/fail/restore
// operations — the reproducible chaos input of WithChurn and of the
// -churn flag of dlsim, dlserve and dlload. Parse one with
// ParseChurnSchedule; see that function for the grammar.
type ChurnSchedule = fleet.Schedule

// ChurnOp is one scheduled churn operation.
type ChurnOp = fleet.Op

// ParseChurnSchedule parses a churn schedule: ";"-separated entries of the
// form "t=<offset> <drain|fail|restore> n<id>", e.g.
// "t=5s fail n3; t=12s restore n3". A bare-number offset is in the
// runner's native time base (simulation units for Simulate, wall seconds
// for dlserve/dlload); a Go duration suffix ("5s", "250ms") converts to
// seconds. Node ids are engine-wide (shard-major on a pool).
func ParseChurnSchedule(s string) (ChurnSchedule, error) { return fleet.ParseSchedule(s) }

// ServiceStats is an atomic snapshot of a Service's admission counters and
// cluster accounting.
type ServiceStats = service.Stats

// Observer receives the legacy per-task lifecycle callbacks
// (accept/reject/commit); TraceRing, GanttCollector and Verifier implement
// it. New code should prefer Service.Subscribe.
type Observer = rt.Observer

// CombineObservers fans lifecycle callbacks out to several observers (nil
// entries are skipped).
func CombineObservers(obs ...Observer) Observer { return service.CombineObservers(obs...) }

// Placement is the pool's pluggable routing layer: it decides which
// shard(s) a submission is offered. Implementations must be safe for
// concurrent use; see RoundRobin, LeastLoaded, PowerOfTwoChoices and
// Spillover for the built-ins.
type Placement = pool.Placement

// ShardLoad is the per-shard load signal placements receive.
type ShardLoad = pool.ShardLoad

// RoundRobin cycles submissions across shards by sequence number.
type RoundRobin = pool.RoundRobin

// LeastLoaded routes each task to the shard with the shortest waiting
// queue (ties prefer the larger, then the lower-indexed shard).
type LeastLoaded = pool.LeastLoaded

// PowerOfTwoChoices samples two shards deterministically from its seed
// and picks the less loaded one.
type PowerOfTwoChoices = pool.PowerOfTwoChoices

// Spillover wraps another placement and retries rejected tasks on the
// remaining shards, least loaded first, before giving a final reject.
type Spillover = pool.Spillover

// ParsePlacement resolves a placement by name ("round-robin", "rr",
// "least-loaded", "ll", "power-of-two", "p2c", "spillover",
// "spillover-rr", "spillover-p2c"); seed feeds the power-of-two variants.
func ParsePlacement(name string, seed uint64) (Placement, error) {
	return pool.ParsePlacement(name, seed)
}

// Placements lists every placement name ParsePlacement accepts.
func Placements() []string { return pool.Placements() }

// serviceOptions collects the functional options of New, Simulate and
// CostModelFor: the engine configuration they all resolve, written by the
// options directly, and the three settings only New reads.
type serviceOptions struct {
	cfg      driver.Config
	clock    Clock
	maxQueue int
	metrics  *MetricsRegistry
}

// defaultOptions starts from the paper's baseline cluster; Simulate sets
// the workload fields of the configuration, and New ignores them.
func defaultOptions() serviceOptions { return serviceOptions{cfg: driver.Default()} }

// Option configures New, Simulate or CostModelFor. Options are applied in
// order; later options override earlier ones.
type Option func(*serviceOptions) error

// WithNodes sets the cluster size (default 16, the paper's baseline).
func WithNodes(n int) Option {
	return func(o *serviceOptions) error {
		if n < 1 {
			return fmt.Errorf("rtdls: WithNodes(%d): need at least one node: %w", n, ErrBadConfig)
		}
		o.cfg.N = n
		return nil
	}
}

// WithParams sets the scalar cost coefficients shared by every node
// (default Cms=1, Cps=100, the paper's baseline).
func WithParams(p Params) Option {
	return func(o *serviceOptions) error {
		o.cfg.Cms, o.cfg.Cps = p.Cms, p.Cps
		return nil
	}
}

// WithNodeCosts gives every node its own cost coefficients (the node count
// follows the slice); it overrides WithNodes.
func WithNodeCosts(costs []NodeCost) Option {
	return func(o *serviceOptions) error {
		if len(costs) == 0 {
			return fmt.Errorf("rtdls: WithNodeCosts: empty table: %w", ErrBadConfig)
		}
		o.cfg.NodeCosts = append([]NodeCost(nil), costs...)
		o.cfg.N = len(costs)
		return nil
	}
}

// WithCostSpread draws a deterministic heterogeneous cost table around the
// scalar reference: per-node coefficients log-uniform within the given
// spread factors (a factor <= 1 keeps that coefficient homogeneous),
// seeded independently of any workload seed. Ignored when an explicit cost
// table is also given.
func WithCostSpread(cmsSpread, cpsSpread float64, seed uint64) Option {
	return func(o *serviceOptions) error {
		o.cfg.CmsSpread, o.cfg.CpsSpread, o.cfg.HeteroSeed = cmsSpread, cpsSpread, seed
		return nil
	}
}

// WithPolicy selects the execution-order policy (default EDF). A value
// other than EDF or FIFO makes New, Simulate and CostModelFor fail with
// ErrBadConfig.
func WithPolicy(pol Policy) Option {
	return func(o *serviceOptions) error {
		o.cfg.Policy = strings.ToLower(pol.String())
		return nil
	}
}

// WithAlgorithm selects the partitioning algorithm (default AlgDLTIIT; see
// Algorithms for the inventory).
func WithAlgorithm(alg string) Option {
	return func(o *serviceOptions) error {
		o.cfg.Algorithm = alg
		return nil
	}
}

// WithRounds sets the installments per node for AlgDLTMR (default 2).
func WithRounds(r int) Option {
	return func(o *serviceOptions) error {
		if r < 1 {
			return fmt.Errorf("rtdls: WithRounds(%d): need at least one round: %w", r, ErrBadConfig)
		}
		o.cfg.Rounds = r
		return nil
	}
}

// WithClock installs the service's clock (default: a ManualClock at 0, so
// time is driven by task arrival stamps). Simulate ignores it — the
// simulation moves its own clock.
func WithClock(c Clock) Option {
	return func(o *serviceOptions) error {
		if c == nil {
			return fmt.Errorf("rtdls: WithClock(nil): %w", ErrBadConfig)
		}
		o.clock = c
		return nil
	}
}

// WithObserver installs legacy lifecycle callbacks alongside the event
// stream (combine several with CombineObservers). A Task or Plan passed to
// one, and the Plan's Task, are valid only while the callback runs: the
// shard pools plans and the records of tasks that died. Copy what you keep;
// events and Decisions are copies already.
func WithObserver(obs Observer) Option {
	return func(o *serviceOptions) error {
		o.cfg.Observer = obs
		return nil
	}
}

// WithMaxQueue bounds the waiting queue: submissions arriving while the
// queue is full are rejected with ErrClusterBusy before the
// schedulability test runs. 0 (the default) means unbounded. Simulate
// ignores it.
func WithMaxQueue(n int) Option {
	return func(o *serviceOptions) error {
		if n < 0 {
			return fmt.Errorf("rtdls: WithMaxQueue(%d): %w", n, ErrBadConfig)
		}
		o.maxQueue = n
		return nil
	}
}

// MetricsRegistry holds the service's instruments — atomic counters,
// gauges and log-bucketed latency histograms — and renders them in the
// Prometheus text exposition format (mount it as GET /metrics; it
// implements http.Handler). Instrument updates and scrape reads are all
// atomic operations: observing the service never takes its admission lock.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WithMetrics instruments the service on the given registry: per-stage
// admission latency histograms (rtdls_admission_stage_seconds), per-shard
// outcome counters (rtdls_submits_total, rtdls_accepts_total,
// rtdls_rejects_total, rtdls_commits_total), load gauges
// (rtdls_queue_depth, rtdls_utilization, ...) and the event-stream drop
// counter (rtdls_events_dropped_total). One registry may be shared by
// several services; metric registration is idempotent. Simulate ignores it.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(o *serviceOptions) error {
		if reg == nil {
			return fmt.Errorf("rtdls: WithMetrics(nil): %w", ErrBadConfig)
		}
		o.metrics = reg
		return nil
	}
}

// WithChurn scripts node drain/fail/restore operations into a Simulate
// run: each op applies at its simulation-time offset, which must be
// finite and non-negative, so a churn run replays bit for bit. Displaced
// tasks relax the result identity to
// Committed + Displaced - Readmitted == Accepted. New ignores it — drive a
// live service with SetNodeState (or the dlserve/dlload -churn flags)
// instead.
func WithChurn(sch ChurnSchedule) Option {
	return func(o *serviceOptions) error {
		o.cfg.Churn = append(ChurnSchedule(nil), sch...)
		return nil
	}
}

// WithShards sizes the service's pool at k independent cluster shards
// fronted by a placement layer (default RoundRobin; see WithPlacement):
// each shard gets its own scheduler and lock, so submissions contend only
// per shard and Submit throughput scales with k on multi-core hardware.
// Every shard copies the cluster configuration (node count, costs, policy,
// algorithm, queue bound) unless WithShardNodes or WithShardNodeCosts
// sizes them individually. The default is k = 1, the paper's one cluster;
// WithShards(1) changes nothing.
func WithShards(k int) Option {
	return func(o *serviceOptions) error {
		if k < 1 {
			return fmt.Errorf("rtdls: WithShards(%d): need at least one shard: %w", k, ErrBadConfig)
		}
		o.cfg.Shards = k
		return nil
	}
}

// WithPlacement selects the pool's routing layer (default RoundRobin).
func WithPlacement(p Placement) Option {
	return func(o *serviceOptions) error {
		if p == nil {
			return fmt.Errorf("rtdls: WithPlacement(nil): %w", ErrBadConfig)
		}
		o.cfg.Placement = p
		return nil
	}
}

// WithShardNodes sizes each shard individually (the shard count follows
// the argument count) — a fleet of differently sized clusters behind one
// admission surface. Overrides WithNodes per shard; combine with
// WithShards only if the counts agree. Combining it with an explicit
// one-cluster table (WithNodeCosts) is rejected — one table
// cannot size individually-shaped shards; use WithShardNodeCosts.
func WithShardNodes(ns ...int) Option {
	return func(o *serviceOptions) error {
		if len(ns) == 0 {
			return fmt.Errorf("rtdls: WithShardNodes: no shard sizes: %w", ErrBadConfig)
		}
		for i, n := range ns {
			if n < 1 {
				return fmt.Errorf("rtdls: WithShardNodes: shard %d needs at least one node, got %d: %w", i, n, ErrBadConfig)
			}
		}
		o.cfg.ShardNodes = append([]int(nil), ns...)
		return nil
	}
}

// WithShardNodeCosts gives every shard its own explicit per-node cost
// table (the shard count follows the argument count) — a fully
// heterogeneous fleet: shards of different sizes and node speeds. It
// overrides WithShardNodes and the spread draw; combining it with a
// one-cluster table (WithNodeCosts) is rejected.
func WithShardNodeCosts(tables ...[]NodeCost) Option {
	return func(o *serviceOptions) error {
		if len(tables) == 0 {
			return fmt.Errorf("rtdls: WithShardNodeCosts: no shard tables: %w", ErrBadConfig)
		}
		o.cfg.ShardNodeCosts = make([][]NodeCost, len(tables))
		for i, tbl := range tables {
			if len(tbl) == 0 {
				return fmt.Errorf("rtdls: WithShardNodeCosts: shard %d table empty: %w", i, ErrBadConfig)
			}
			o.cfg.ShardNodeCosts[i] = append([]NodeCost(nil), tbl...)
		}
		return nil
	}
}

// apply folds the options over the defaults.
func applyOptions(opts []Option) (serviceOptions, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// CostModelFor resolves the per-node cost table the given options describe
// — explicit node costs verbatim, a spread-generated table, or the uniform
// scalar model — exactly as New and Simulate resolve it. Useful to build a
// matching Verifier (NewVerifierCosts) or to inspect the drawn table.
func CostModelFor(opts ...Option) (*CostModel, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	shards, err := o.cfg.ShardConfigs()
	if err != nil {
		return nil, err
	}
	return shards[0].Cluster.Costs(), nil
}

// Service is the long-lived, goroutine-safe admission-control service: the
// paper's schedulability test exposed as a continuously available surface.
// It is the engine itself, the pool of K independent cluster shards behind
// a placement layer (see examples/pool); the default is the K = 1 pool,
// the paper's one cluster. Construct with New. Its methods, documented in
// full by go doc rtdls/internal/pool Pool:
//
//   - admission: Submit, SubmitBatch, which is its tasks' Submits in input
//     order, and SubmitTo, which writes into a Decision the caller reuses;
//   - events: Subscribe;
//   - lifecycle: SetAccepting, Accepting, Pump, Drain, Close, Clock,
//     NextCommit;
//   - fleet: SetNodeState, AddNode, NodeStates;
//   - views (Stats and Exec aggregate the fleet): Stats, ShardStats, Exec,
//     Spillovers, Shards, Placement, ShardCosts. None hands out a shard's
//     cluster: it is changed only through the fleet calls and admission.
//
// Decisions and events carry the placing shard. See examples/quickstart.
type Service = pool.Pool

// Subscription is one consumer's handle on the event stream: its channel
// plus the subscriber's own dropped-event counter, so a lossy consumer can
// detect exactly how many events it missed (Stats().EventsDropped only
// reports the bus-wide total).
type Subscription = service.Subscription

// New builds a service from functional options:
//
//	svc, err := rtdls.New(
//		rtdls.WithNodes(16),
//		rtdls.WithParams(rtdls.Params{Cms: 1, Cps: 100}),
//		rtdls.WithPolicy(rtdls.EDF),
//		rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
//	)
//
// The zero-option call reproduces the paper's baseline cluster (16 nodes,
// Cms=1, Cps=100, EDF, DLT-IIT) under a manual clock, as a one-shard
// pool. The shard options (WithShards, WithPlacement, WithShardNodes,
// WithShardNodeCosts) size the pool; with several shards the observer
// installed by WithObserver is invoked concurrently from every shard and
// must be safe for concurrent use.
func New(opts ...Option) (*Service, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	shards, err := o.cfg.ShardConfigs()
	if err != nil {
		return nil, err
	}
	for j := range shards {
		shards[j].MaxQueue = o.maxQueue
	}
	met := service.NewMetrics(o.metrics) // nil registry → nil Metrics
	return pool.New(pool.Config{Shards: shards, Placement: o.cfg.Placement, Clock: o.clock, Metrics: met})
}

// Workload parameterises one synthetic evaluation run for Simulate:
// Poisson arrivals at the given SystemLoad, σ ~ N(AvgSigma, AvgSigma)
// truncated positive, deadlines via DCRatio, over the Horizon.
type Workload struct {
	SystemLoad float64
	AvgSigma   float64
	DCRatio    float64
	Horizon    float64
	Seed       uint64
}

// BaselineWorkload returns the paper's baseline workload (Sec. 5.1):
// load 0.5, Avgσ=200, DCRatio=2, horizon 10⁷, seed 1.
func BaselineWorkload() Workload {
	return Workload{SystemLoad: 0.5, AvgSigma: 200, DCRatio: 2, Horizon: 1e7, Seed: 1}
}

// Simulate replays the synthetic workload through an admission service
// on a simulated clock and returns the run's metrics. It is
// the options-based successor of Run:
//
//	res, err := rtdls.Simulate(rtdls.Workload{SystemLoad: 0.7, AvgSigma: 200, DCRatio: 2, Horizon: 1e6, Seed: 1},
//		rtdls.WithAlgorithm(rtdls.AlgDLTIIT))
//
// WithClock and WithMaxQueue are ignored: the simulation binds its own
// clock and models an unbounded queue, matching the paper's evaluation.
func Simulate(w Workload, opts ...Option) (*Result, error) {
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	cfg := o.cfg
	cfg.SystemLoad = w.SystemLoad
	cfg.AvgSigma = w.AvgSigma
	cfg.DCRatio = w.DCRatio
	cfg.Horizon = w.Horizon
	cfg.Seed = w.Seed
	return driver.Run(cfg)
}

// SimulateSeries runs the workload across several SystemLoad values,
// returning one Result per load — the options-based successor of
// RunSeries.
func SimulateSeries(w Workload, loads []float64, opts ...Option) ([]*Result, error) {
	out := make([]*Result, 0, len(loads))
	for _, l := range loads {
		wl := w
		wl.SystemLoad = l
		r, err := Simulate(wl, opts...)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
