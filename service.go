package rtdls

import (
	"context"
	"fmt"

	"rtdls/internal/driver"
	"rtdls/internal/fleet"
	"rtdls/internal/metrics"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// Clock supplies a Service's notion of "now" in simulation time units; the
// same admission engine runs under the discrete-event simulator, under
// wall-clock time or under test control. Implementations must be safe for
// concurrent use.
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
// CostModelFor.
type serviceOptions struct {
	n          int
	params     Params
	nodeCosts  []NodeCost
	cmsSpread  float64
	cpsSpread  float64
	heteroSeed uint64
	policy     Policy
	algorithm  string
	rounds     int
	clock      Clock
	observer   Observer
	maxQueue   int
	shards     int
	placement  Placement
	shardNodes []int
	shardCosts [][]NodeCost
	metrics    *MetricsRegistry
	churn      ChurnSchedule
}

func defaultOptions() serviceOptions {
	return serviceOptions{
		n:         16,
		params:    Params{Cms: 1, Cps: 100},
		policy:    EDF,
		algorithm: AlgDLTIIT,
	}
}

// Option configures New, Simulate or CostModelFor. Options are applied in
// order; later options override earlier ones.
type Option func(*serviceOptions) error

// WithNodes sets the cluster size (default 16, the paper's baseline).
func WithNodes(n int) Option {
	return func(o *serviceOptions) error {
		if n < 1 {
			return fmt.Errorf("rtdls: WithNodes(%d): need at least one node: %w", n, ErrBadConfig)
		}
		o.n = n
		return nil
	}
}

// WithParams sets the scalar cost coefficients shared by every node
// (default Cms=1, Cps=100, the paper's baseline).
func WithParams(p Params) Option {
	return func(o *serviceOptions) error {
		o.params = p
		return nil
	}
}

// WithCosts gives every node its own cost coefficients from an existing
// cost model; it overrides WithNodes and WithNodeCosts.
func WithCosts(cm *CostModel) Option {
	return func(o *serviceOptions) error {
		if cm == nil {
			return fmt.Errorf("rtdls: WithCosts(nil): %w", ErrBadConfig)
		}
		o.nodeCosts = cm.Costs()
		o.n = cm.N()
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
		o.nodeCosts = append([]NodeCost(nil), costs...)
		o.n = len(costs)
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
		o.cmsSpread = cmsSpread
		o.cpsSpread = cpsSpread
		o.heteroSeed = seed
		return nil
	}
}

// WithPolicy selects the execution-order policy (default EDF).
func WithPolicy(pol Policy) Option {
	return func(o *serviceOptions) error {
		o.policy = pol
		return nil
	}
}

// WithAlgorithm selects the partitioning algorithm (default AlgDLTIIT; see
// Algorithms for the inventory).
func WithAlgorithm(alg string) Option {
	return func(o *serviceOptions) error {
		o.algorithm = alg
		return nil
	}
}

// WithRounds sets the installments per node for AlgDLTMR (default 2).
func WithRounds(r int) Option {
	return func(o *serviceOptions) error {
		if r < 1 {
			return fmt.Errorf("rtdls: WithRounds(%d): need at least one round: %w", r, ErrBadConfig)
		}
		o.rounds = r
		return nil
	}
}

// WithClock installs the service's clock (default: a ManualClock at 0, so
// time is driven by task arrival stamps). Simulate ignores it — the
// simulation binds its own discrete-event clock.
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
// stream (combine several with CombineObservers).
func WithObserver(obs Observer) Option {
	return func(o *serviceOptions) error {
		o.observer = obs
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
// run: each op fires as a discrete event at its simulation-time offset,
// so a churn run replays bit for bit. Displaced tasks relax the result
// identity to Committed + Displaced - Readmitted == Accepted. New ignores
// it — drive a live service with DrainNode/FailNode/RestoreNode (or the
// dlserve/dlload -churn flags) instead.
func WithChurn(sch ChurnSchedule) Option {
	return func(o *serviceOptions) error {
		o.churn = append(ChurnSchedule(nil), sch...)
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
		o.shards = k
		return nil
	}
}

// WithPlacement selects the pool's routing layer (default RoundRobin).
func WithPlacement(p Placement) Option {
	return func(o *serviceOptions) error {
		if p == nil {
			return fmt.Errorf("rtdls: WithPlacement(nil): %w", ErrBadConfig)
		}
		o.placement = p
		return nil
	}
}

// WithShardNodes sizes each shard individually (the shard count follows
// the argument count) — a fleet of differently sized clusters behind one
// admission surface. Overrides WithNodes per shard; combine with
// WithShards only if the counts agree. Combining it with an explicit
// one-cluster table (WithCosts/WithNodeCosts) is rejected — one table
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
		o.shardNodes = append([]int(nil), ns...)
		return nil
	}
}

// WithShardNodeCosts gives every shard its own explicit per-node cost
// table (the shard count follows the argument count) — a fully
// heterogeneous fleet: shards of different sizes and node speeds. It
// overrides WithShardNodes and the spread draw; combining it with a
// one-cluster table (WithCosts/WithNodeCosts) is rejected.
func WithShardNodeCosts(tables ...[]NodeCost) Option {
	return func(o *serviceOptions) error {
		if len(tables) == 0 {
			return fmt.Errorf("rtdls: WithShardNodeCosts: no shard tables: %w", ErrBadConfig)
		}
		o.shardCosts = make([][]NodeCost, len(tables))
		for i, tbl := range tables {
			if len(tbl) == 0 {
				return fmt.Errorf("rtdls: WithShardNodeCosts: shard %d table empty: %w", i, ErrBadConfig)
			}
			o.shardCosts[i] = append([]NodeCost(nil), tbl...)
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

// config assembles the driver configuration the options describe, using
// the canonical lowercase policy names so a Config echoed through Result
// matches the 1.x convention.
func (o serviceOptions) config() driver.Config {
	pol := "edf"
	if o.policy == FIFO {
		pol = "fifo"
	}
	return driver.Config{
		N:              o.n,
		Cms:            o.params.Cms,
		Cps:            o.params.Cps,
		Policy:         pol,
		Algorithm:      o.algorithm,
		Rounds:         o.rounds,
		NodeCosts:      o.nodeCosts,
		CmsSpread:      o.cmsSpread,
		CpsSpread:      o.cpsSpread,
		HeteroSeed:     o.heteroSeed,
		Observer:       o.observer,
		Shards:         o.shards,
		Placement:      o.placement,
		ShardNodes:     o.shardNodes,
		ShardNodeCosts: o.shardCosts,
		Churn:          o.churn,
	}
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
	shards, err := o.config().ShardConfigs()
	if err != nil {
		return nil, err
	}
	return shards[0].Cluster.Costs(), nil
}

// Service is the long-lived, goroutine-safe admission-control service: the
// paper's schedulability test exposed as a continuously available surface.
// Construct with New; submit tasks from any number of goroutines with
// Submit/SubmitBatch; observe decisions via the Subscribe event stream or
// the Stats snapshot. See examples/quickstart and examples/admission.
//
// The surface fronts a pool of K independent cluster shards behind a
// placement layer (see examples/pool); the default is the K = 1 pool, the
// paper's one cluster. Decisions and events carry the placing shard,
// Stats aggregates the fleet, and ShardStats/Clusters expose the
// per-shard views.
type Service struct {
	pool *pool.Pool
	cms  []*CostModel // per-shard cost models
}

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
	shards, err := o.config().ShardConfigs()
	if err != nil {
		return nil, err
	}
	cms := make([]*CostModel, len(shards))
	for j := range shards {
		shards[j].MaxQueue = o.maxQueue
		cms[j] = shards[j].Cluster.Costs()
	}
	met := service.NewMetrics(o.metrics) // nil registry → nil Metrics
	pl, err := pool.New(pool.Config{Shards: shards, Placement: o.placement, Clock: o.clock, Metrics: met})
	if err != nil {
		return nil, err
	}
	return &Service{pool: pl, cms: cms}, nil
}

// Submit runs the admission test for one task and returns the decision.
// Safe to call from any goroutine. A zero Arrival means "arrives now"; a
// future Arrival advances the effective submission instant. The error
// return reports malformed input or a closed service — never
// infeasibility, which is a clean decision with Reason ErrInfeasible.
func (s *Service) Submit(ctx context.Context, t Task) (Decision, error) {
	return s.pool.Submit(ctx, t)
}

// SubmitBatch submits several tasks in order, returning one decision per
// considered task. The batch is atomic per shard: each shard decides and
// installs its part as one group. With more than one shard the parts run
// concurrently, refused tasks spill over afterwards, and other submitters
// may interleave between them, so the whole batch is atomic only on the
// default one-shard service.
func (s *Service) SubmitBatch(ctx context.Context, tasks []Task) ([]Decision, error) {
	return s.pool.SubmitBatch(ctx, tasks)
}

// Subscribe attaches a consumer to the decision/lifecycle event stream.
// The returned cancel function detaches it and closes the channel. A slow
// consumer loses events (counted in Stats().EventsDropped) rather than
// blocking admission control.
func (s *Service) Subscribe(buffer int) (<-chan Event, func()) {
	return s.pool.Subscribe(buffer)
}

// Subscription is one consumer's handle on the event stream: its channel
// plus the subscriber's own dropped-event counter, so a lossy consumer can
// detect exactly how many events it missed (Stats().EventsDropped only
// reports the bus-wide total).
type Subscription = service.Subscription

// SubscribeStream attaches a consumer and returns its Subscription handle.
// The dlserve event streamer uses it to emit explicit gap notices to its
// clients instead of silently skipping decisions.
func (s *Service) SubscribeStream(buffer int) *Subscription {
	return s.pool.SubscribeStream(buffer)
}

// SetAccepting flips the admission gate: while false, every submission
// fails fast with ErrClusterBusy (a hard error, not a decision) while
// commits and the event stream keep operating. It is the first step of a
// graceful drain — SetAccepting(false), Drain, Close — and is reversible
// until Close.
func (s *Service) SetAccepting(accepting bool) { s.pool.SetAccepting(accepting) }

// Accepting reports whether the admission gate is open: true until
// SetAccepting(false) or Close. Lock-free — health checks poll it without
// contending with submissions.
func (s *Service) Accepting() bool { return s.pool.Accepting() }

// SetSpeculation toggles optimistic two-phase admission (on by default):
// when on, a submit that overlaps another on its shard — or follows one
// that did within the last 64 submits — plans off-lock against an
// epoch-stamped snapshot and holds the shard lock only for an epoch check
// plus the install, so concurrent submitters plan in parallel; a
// conflicting epoch falls back to the serialized path, keeping the decision
// stream bit-for-bit identical to a serialized execution. A lone submitter
// takes the serialized path regardless: it has nothing to overlap the
// planning with. Turning speculation off forces every submission through
// the serialized path — an operational escape hatch and the baseline for
// the equivalence tests.
func (s *Service) SetSpeculation(on bool) { s.pool.SetSpeculation(on) }

// Stats returns a consistent snapshot of the admission counters, queue
// depth and cluster utilization, aggregated over every shard (see
// ServiceStats for the aggregation rules).
func (s *Service) Stats() ServiceStats { return s.pool.Stats() }

// NextCommit returns the earliest pending first-transmission time over
// all shards, or ok=false when no task is waiting.
func (s *Service) NextCommit() (at float64, ok bool) { return s.pool.NextCommit() }

// Pump commits every waiting plan whose first transmission is due at the
// current clock reading. Submissions do this implicitly; Pump exists for
// idle periods.
func (s *Service) Pump() error { return s.pool.Pump() }

// Drain commits every remaining waiting plan regardless of the clock —
// the flush/shutdown path.
func (s *Service) Drain() error { return s.pool.Drain() }

// Clock returns the service's clock (shared by every shard).
func (s *Service) Clock() Clock { return s.pool.Clock() }

// DrainNode stops placing new work on the node; committed work runs to
// completion. Waiting plans are re-validated against the remaining live
// capacity: tasks that no longer pass the schedulability test are
// displaced (EventDisplace with ReasonNodeUnavailable on the stream) and
// offered to the other shards, if any, through the normal admission test.
// The node id is engine-wide (shard-major).
func (s *Service) DrainNode(node int) (FleetResult, error) { return s.pool.DrainNode(node) }

// FailNode removes the node's capacity immediately; waiting plans are
// re-validated exactly as for DrainNode.
func (s *Service) FailNode(node int) (FleetResult, error) { return s.pool.FailNode(node) }

// RestoreNode returns a drained or failed node to service. Nothing is
// displaced — capacity only grows — and a fail-then-restore cycle with no
// interim admissions leaves the scheduler bit-identical to one that never
// failed.
func (s *Service) RestoreNode(node int) (FleetResult, error) { return s.pool.RestoreNode(node) }

// AddNode grows the fleet by one node with the given cost coefficients
// and returns its engine-wide id. The node joins the shard with the fewest
// live nodes.
func (s *Service) AddNode(nc NodeCost) (int, error) { return s.pool.AddNode(nc) }

// NodeStates returns every node's lifecycle state, indexed by the
// engine-wide node id (shard-major).
func (s *Service) NodeStates() []NodeState { return s.pool.NodeStates() }

// ShardCosts returns every shard's cost model, indexed by shard.
func (s *Service) ShardCosts() []*CostModel { return append([]*CostModel(nil), s.cms...) }

// Clusters returns every shard's live cluster substrate (release times,
// accounting), indexed by shard.
func (s *Service) Clusters() []*Cluster { return s.pool.Clusters() }

// Shards returns the number of cluster shards behind the service (1 by
// default).
func (s *Service) Shards() int { return s.pool.Shards() }

// ShardStats returns every shard's own snapshot, indexed by shard. Under
// a spillover placement a retried task counts at every shard that saw it;
// the pool-level Stats counts it once.
func (s *Service) ShardStats() []ServiceStats { return s.pool.ShardStats() }

// Spillovers returns how many accepted tasks needed at least one
// spillover retry (always 0 without a Spillover placement).
func (s *Service) Spillovers() int { return s.pool.Spillovers() }

// Close marks the service closed — subsequent submissions fail with
// ErrClusterBusy — and closes every subscriber channel. Call Drain first
// to flush waiting plans. Close is idempotent.
func (s *Service) Close() error { return s.pool.Close() }

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
// bound to the discrete-event engine and returns the run's metrics. It is
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
	cfg := o.config()
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
