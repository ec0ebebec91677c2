// Package pool shards the admission-control service across K independent
// clusters with a pluggable placement layer in front — the architecture of
// multi-source divisible-load systems (Wu/Cao/Robertazzi): several
// independently-fed clusters, each with its own scheduler and lock, and a
// routing decision deciding which cluster is offered each arriving task.
//
// A Pool owns K service.Service shards that share one Clock and one event
// Bus (events and decisions are shard-tagged), while every shard keeps its
// own cluster.Cluster, rt.Scheduler and lock. A shard commits what is due
// on its next submission, on Pump or on Drain; a pool whose clock is a
// WallClock also runs one commit pump, a goroutine that calls Pump when the
// earliest waiting plan's first transmission is due, so it commits on time
// with no traffic. A ManualClock's caller moves time itself, and its pool
// runs no pump. Submissions from any number of goroutines therefore
// contend only on the shard they are placed on, never on a pool-global
// lock — Submit throughput scales with the shard count instead of
// serialising on one O(queue × plan) replan.
//
// Every shard a task is offered to decides it on its own state and counts
// the decision: a spilled reject is one decision per shard it was offered
// to. The walk hands each shard the task and the one Decision it fills in
// place (service.Service.SubmitTo), and a shard whose demand bound refuses
// the task answers in O(1) of its queue, before any plan or task record. A
// batch is its tasks' Submits, one after another down that walk.
//
// The pool is the one engine, exported as rtdls.Service and driven by
// driver.Run, and one cluster is simply K = 1 — no special case: a
// one-shard pool under any placement reproduces its bare shard decision
// for decision, stat for stat, and allocates nothing of its own per Submit.
package pool

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// ShardConfig assembles one shard: its cluster substrate, execution-order
// policy and partitioning module. Cluster and Partitioner are mandatory.
type ShardConfig struct {
	// Cluster belongs to the pool once passed in: change it only through the pool.
	Cluster     *cluster.Cluster
	Policy      rt.Policy
	Partitioner rt.Partitioner

	// MaxQueue bounds the shard's waiting queue (0 = unbounded); a full
	// shard refuses with ErrClusterBusy, which a Spillover placement
	// retries elsewhere.
	MaxQueue int

	// Observer optionally receives the shard's legacy lifecycle callbacks.
	Observer rt.Observer
}

// Config assembles a Pool.
type Config struct {
	// Shards configures the member clusters; at least one is required.
	// Shards may differ in size, cost model, policy and partitioner — a
	// heterogeneous fleet of clusters.
	Shards []ShardConfig

	// Placement routes each submission; nil defaults to RoundRobin.
	Placement Placement

	// Clock is shared by every shard; nil defaults to a ManualClock at 0.
	Clock service.Clock

	// Metrics optionally instruments the pool: every shard records its
	// outcome counters, load gauges and per-stage admission histograms on
	// the shared instance, plus pool-level spillover and event-drop
	// counters. Nil disables instrumentation.
	Metrics *service.Metrics
}

// Pool is the sharded, concurrency-safe admission-control engine; see the
// package comment for the architecture.
type Pool struct {
	shards []*service.Service
	place  Placement
	clock  service.Clock
	bus    *service.Bus
	met    *service.Metrics // nil when uninstrumented
	total  atomic.Int64     // Σ shard cluster sizes (grows with AddNode)

	needLoads bool // placement reads QueueLen (see LoadAware)

	seq        atomic.Uint64 // submission sequence (placement input)
	accepts    atomic.Int64  // pool-level decisions (a spillover retry is one decision)
	rejects    atomic.Int64
	spillovers atomic.Int64 // accepts that needed at least one retry
	closed     atomic.Bool
	draining   atomic.Bool // admission gate (SetAccepting(false))

	// fleetMu serialises fleet operations and guards the global node-id
	// registry. Submissions never touch it: node ids are append-only and
	// the placement layer reads only the shards' lock-free mirrors.
	fleetMu      sync.Mutex
	nodeOf       []nodeRef    // global node id (shard-major, append-only) → location
	readmissions atomic.Int64 // displaced tasks re-admitted on another shard

	scratch sync.Pool // *placeScratch, reused across submissions

	// The commit pump's channels, all nil when the clock has no Until and
	// no pump runs: kick (one slot) wakes it to re-arm its timer after an
	// accept or a fleet change, quit stops it, and pumped closes when it
	// has stopped.
	kick     chan struct{}
	quit     chan struct{}
	pumped   chan struct{}
	quitOnce sync.Once
}

// untilClock is a clock that can say how long the wall waits until it
// reads a given instant (service.WallClock): a pool on one runs a pump.
type untilClock interface {
	Until(at float64) time.Duration
}

// nodeRef locates one global node id inside the pool.
type nodeRef struct{ shard, local int }

type placeScratch struct {
	loads []ShardLoad
	order []int
	task  rt.Task // Submit's task, so the placement's pointer does not move it to the heap
}

// New validates the configuration and returns a ready pool.
func New(cfg Config) (*Pool, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("pool: need at least one shard: %w", errs.ErrBadConfig)
	}
	place := cfg.Placement
	if place == nil {
		place = RoundRobin{}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = service.NewManualClock(0)
	}
	p := &Pool{
		place:  place,
		clock:  clock,
		bus:    service.NewBus(),
		met:    cfg.Metrics,
		shards: make([]*service.Service, 0, len(cfg.Shards)),
	}
	for i, sc := range cfg.Shards {
		sh, err := service.New(service.Config{
			Cluster:     sc.Cluster,
			Policy:      sc.Policy,
			Partitioner: sc.Partitioner,
			Clock:       clock,
			Observer:    sc.Observer,
			MaxQueue:    sc.MaxQueue,
			Shard:       i,
			Bus:         p.bus,
			Metrics:     cfg.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("pool: shard %d: %w", i, err)
		}
		p.shards = append(p.shards, sh)
		for local := 0; local < sc.Cluster.N(); local++ {
			p.nodeOf = append(p.nodeOf, nodeRef{shard: i, local: local})
		}
		p.total.Add(int64(sc.Cluster.N()))
	}
	p.needLoads = true
	if la, ok := place.(LoadAware); ok {
		p.needLoads = la.NeedsLoads()
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Registry().CounterFunc("rtdls_spillovers_total",
			"Accepted tasks that needed at least one spillover retry.", nil,
			func() float64 { return float64(p.spillovers.Load()) })
	}
	k := len(cfg.Shards)
	p.scratch.New = func() any {
		sc := &placeScratch{loads: make([]ShardLoad, k), order: make([]int, 0, k)}
		for i := range sc.loads {
			sc.loads[i] = ShardLoad{Shard: i}
		}
		return sc
	}
	if c, ok := clock.(untilClock); ok {
		p.kick, p.quit, p.pumped = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
		go p.pump(c)
	}
	return p, nil
}

// pump is the commit pump of a wall-clock pool: it sleeps until the
// earliest waiting plan's first transmission, or until a kick says that
// instant may have moved, and then calls Pump. After a failed Pump it
// waits for the next kick instead of retrying at once. It runs until quit.
func (p *Pool) pump(c untilClock) {
	defer close(p.pumped)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	failed := false
	for {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if at, ok := p.NextCommit(); ok && !failed {
			timer.Reset(c.Until(at))
		}
		select {
		case <-p.quit:
			return
		case <-p.kick:
			failed = false
		case <-timer.C:
			failed = p.Pump() != nil
		}
	}
}

// wake signals the commit pump, when one runs, without blocking: a kick
// already pending covers this one.
func (p *Pool) wake() {
	if p.kick != nil {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// stopPump stops the commit pump, when one runs, and waits until it has.
func (p *Pool) stopPump() {
	if p.kick != nil {
		p.quitOnce.Do(func() { close(p.quit) })
		<-p.pumped
	}
}

// Shards returns the number of member clusters.
func (p *Pool) Shards() int { return len(p.shards) }

// Placement returns the routing layer.
func (p *Pool) Placement() Placement { return p.place }

// Clock returns the clock shared by every shard.
func (p *Pool) Clock() service.Clock { return p.clock }

// ShardCosts returns every shard's current cost model, indexed by shard.
func (p *Pool) ShardCosts() []*dlt.CostModel {
	out := make([]*dlt.CostModel, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.Costs()
	}
	return out
}

// Spillovers returns how many accepted tasks needed at least one
// spillover retry (0 under single-choice placements).
func (p *Pool) Spillovers() int { return int(p.spillovers.Load()) }

// Submit runs the admission test for one task on the shard the placement
// layer picks and returns the decision; safe from any goroutine. A zero
// Arrival means "arrives now"; a future one advances the submission instant
// on a clock its caller moves (ManualClock) and is malformed input on a
// wall clock. Under a spillover placement a rejected task is retried down the
// preference order until a shard accepts or all have refused; Decision.Shard
// reports the placing shard. The error return reports malformed input, a
// cancelled context or a closed pool — never infeasibility, which is a
// clean decision with Reason ErrInfeasible.
func (p *Pool) Submit(ctx context.Context, task rt.Task) (service.Decision, error) {
	var d service.Decision
	err := p.SubmitTo(ctx, &task, &d)
	return d, err
}

// SubmitTo is Submit writing the decision to d, which a hard error leaves
// zero. The task is only read. As with service.Service.SubmitTo, an accept
// copies its plan into d's own Nodes, Starts and Alphas when their capacity
// holds it and a reject keeps them, truncated: a caller that reuses one
// Decision per submit allocates no copies, and one that keeps an earlier
// decision copies its slices first.
func (p *Pool) SubmitTo(ctx context.Context, task *rt.Task, d *service.Decision) error {
	if err := p.enter(ctx); err != nil {
		*d = service.Decision{}
		return err
	}
	sc := p.scratch.Get().(*placeScratch)
	defer p.scratch.Put(sc)
	return p.walk(ctx, sc, task, d)
}

// walk is the pool's one decision path, for a submission enter let in. The
// placement reads every shard's lock-free mirrors — Live always (it skips
// drained shards), queue lengths and node counts only when load-aware — and
// builds the task's preference order in the scratch's buffer; the task is
// settled down that order. A hard error leaves d zero.
func (p *Pool) walk(ctx context.Context, sc *placeScratch, task *rt.Task, d *service.Decision) error {
	for i, sh := range p.shards {
		sc.loads[i].Live = sh.LiveNodes()
		if p.needLoads {
			sc.loads[i].QueueLen = sh.QueueLen()
			sc.loads[i].Nodes = sh.Nodes()
		}
	}
	sc.task = *task
	order := p.place.Order(sc.order[:0], p.seq.Add(1)-1, sc.loads, &sc.task)
	sc.order = order[:0]
	var err error
	if len(order) == 0 {
		err = fmt.Errorf("pool: placement %s returned no shard: %w", p.place.Name(), errs.ErrBadConfig)
	}
	for _, idx := range order {
		if idx < 0 || idx >= len(p.shards) {
			err = fmt.Errorf("pool: placement %s picked shard %d of %d: %w",
				p.place.Name(), idx, len(p.shards), errs.ErrBadConfig)
			break
		}
	}
	if err != nil {
		*d = service.Decision{}
		return err
	}
	return p.settle(ctx, &sc.task, order, d)
}

// enter reports why the pool takes no submission now, when it does not:
// the caller's context is done, or the pool is closed or draining.
func (p *Pool) enter(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if p.closed.Load() {
		return fmt.Errorf("pool: closed: %w", errs.ErrClusterBusy)
	}
	if p.draining.Load() {
		return fmt.Errorf("pool: draining: %w", errs.ErrClusterBusy)
	}
	return nil
}

// offer is the pool's one routing rule: offer the task to the shards of
// cands in turn, passing over those with no live node, until one accepts,
// one finds the deadline already past — on the shared clock that dooms the
// task everywhere — or the list ends. Each decision is written to d, which
// keeps the last one made (and is untouched when no shard decided); offer
// returns how many shards decided and the candidates it did not get to. A
// shard's hard error ends the walk.
func (p *Pool) offer(ctx context.Context, task *rt.Task, cands []int, d *service.Decision) (tried int, rest []int, err error) {
	for i, idx := range cands {
		if p.shards[idx].LiveNodes() == 0 {
			continue
		}
		if err = p.shards[idx].SubmitTo(ctx, task, d); err != nil {
			return tried, cands[i+1:], err
		}
		tried++
		if d.Accepted || d.Reason == errs.ReasonDeadlinePast {
			return tried, cands[i+1:], nil
		}
	}
	return tried, nil, nil
}

// settle is the tail of the walk: it offers a task down its placement order
// and books the pool-level outcome in d, one arrival however many shards
// it took and a spillover when the accept was not the first offer.
func (p *Pool) settle(ctx context.Context, task *rt.Task, order []int, d *service.Decision) error {
	tried, _, err := p.offer(ctx, task, order, d)
	if err != nil {
		return err
	}
	if tried == 0 {
		// Every shard the placement picked is drained: fall through to the
		// remaining live shards in index order rather than losing the task
		// to a dead pick (single-choice placements under churn).
		rest := make([]int, 0, len(p.shards))
		for idx := range p.shards {
			if !slices.Contains(order, idx) {
				rest = append(rest, idx)
			}
		}
		if tried, _, err = p.offer(ctx, task, rest, d); err != nil {
			return err
		}
		if tried == 0 {
			// No shard has a live node: the first pick decides, and its
			// scheduler rejects the task as infeasible, so the submission
			// is a counted decision with its EventReject for every K.
			if err = p.shards[order[0]].SubmitTo(ctx, task, d); err != nil {
				return err
			}
			tried = 1
		}
	}
	if !d.Accepted {
		p.rejects.Add(1)
		return nil
	}
	p.accepts.Add(1)
	if tried > 1 {
		p.spillovers.Add(1)
	}
	p.wake()
	return nil
}

// SubmitBatch is the tasks' Submits, one after another in input order: it
// decides, counts and announces what they would, and returns the decisions
// in input order. It holds no lock across tasks, so concurrent submitters
// may interleave anywhere in it. A task's own hard error (malformed input)
// leaves it without a decision and the batch goes on, returning the first
// such error; a done context or a closed or draining pool ends the batch.
// The tasks without a decision were admitted nowhere: resubmit exactly those.
func (p *Pool) SubmitBatch(ctx context.Context, tasks []rt.Task) ([]service.Decision, error) {
	decisions := make([]service.Decision, len(tasks))
	sc := p.scratch.Get().(*placeScratch)
	defer p.scratch.Put(sc)
	n := 0
	var firstErr error
	for i := range tasks {
		if err := p.enter(ctx); err != nil {
			return decisions[:n], cmp.Or(firstErr, err)
		}
		if err := p.walk(ctx, sc, &tasks[i], &decisions[n]); err != nil {
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		n++
	}
	return decisions[:n], firstErr
}

// Subscribe attaches a consumer to the pool-wide event stream — one
// merged, shard-tagged sequence over all shards — and returns its
// Subscription handle. Cancel detaches it and closes the channel. A slow
// consumer loses events (counted in Stats().EventsDropped, and per
// subscriber by Dropped, from which dlserve's event streamer emits
// explicit gap notices) rather than blocking admission control.
func (p *Pool) Subscribe(buffer int) *service.Subscription {
	return p.bus.Subscribe(buffer)
}

// SetAccepting flips the pool-wide admission gate: while false, every
// submission fails fast with ErrClusterBusy before placement runs, while
// commits and the event stream keep operating — the first step of a
// graceful drain (SetAccepting(false), Drain, Close). Reversible until Close.
func (p *Pool) SetAccepting(accepting bool) { p.draining.Store(!accepting) }

// Accepting reports whether the pool-wide admission gate is open:
// true until SetAccepting(false) or Close. Lock-free — the health
// endpoint's readiness signal.
func (p *Pool) Accepting() bool { return !p.draining.Load() && !p.closed.Load() }

// Stats returns the pool-wide aggregate of every shard's snapshot:
// admission counters from the pool's final decisions (a task spilled over
// N shards counts once, not N times), capacity accounting summed over the
// shards, MaxQueueLen as the sum of per-shard peaks (an upper bound on the
// peak total), and Utilization over the combined node count. Per-shard
// views come from ShardStats.
func (p *Pool) Stats() service.Stats {
	now := p.clock.Now()
	agg := service.Stats{Time: now, Accepts: int(p.accepts.Load()), Rejects: int(p.rejects.Load())}
	agg.Arrivals = agg.Accepts + agg.Rejects
	for _, sh := range p.shards {
		st := sh.Stats()
		agg.Commits += st.Commits
		agg.QueueLen += st.QueueLen
		agg.MaxQueueLen += st.MaxQueueLen
		agg.BusyTime += st.BusyTime
		agg.ReservedIdle += st.ReservedIdle
		agg.NodesUp += st.NodesUp
		agg.NodesDraining += st.NodesDraining
		agg.NodesDown += st.NodesDown
		agg.Displaced += st.Displaced
		agg.LateCommits += st.LateCommits
		agg.PlansComputed += st.PlansComputed
		agg.PlansReused += st.PlansReused
		agg.DemandRejects += st.DemandRejects
		if st.LastRelease > agg.LastRelease {
			agg.LastRelease = st.LastRelease
		}
	}
	agg.Readmitted = int(p.readmissions.Load())
	if span := math.Max(now, agg.LastRelease); span > 0 {
		agg.Utilization = agg.BusyTime / (float64(p.total.Load()) * span)
	}
	agg.EventsDropped = p.bus.DroppedTotal()
	return agg
}

// ShardStats returns every shard's own snapshot, indexed by shard. Note
// that shard-level Arrivals/Rejects count what the shard saw: every shard
// a task is offered to decides and counts it, so under a spillover
// placement a retried task appears on every shard that refused it, the
// ones whose demand bound refused it at once included. EventsDropped is
// bus-wide (the shards share one bus).
func (p *Pool) ShardStats() []service.Stats {
	out := make([]service.Stats, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Exec returns the execution metrics of committed plans aggregated over
// all shards.
func (p *Pool) Exec() service.ExecStats {
	agg := service.ExecStats{MaxLateness: math.Inf(-1)}
	for _, sh := range p.shards {
		ex := sh.Exec()
		agg.Committed += ex.Committed
		agg.RespSum += ex.RespSum
		agg.SlackSum += ex.SlackSum
		agg.NodeSum += ex.NodeSum
		if ex.MaxLateness > agg.MaxLateness {
			agg.MaxLateness = ex.MaxLateness
		}
	}
	return agg
}

// NextCommit returns the earliest pending first-transmission time across
// all shards, or ok=false when every waiting queue is empty.
func (p *Pool) NextCommit() (at float64, ok bool) {
	at = math.Inf(1)
	for _, sh := range p.shards {
		if t, has := sh.NextCommit(); has && t < at {
			at = t
		}
	}
	return at, !math.IsInf(at, 1)
}

// Pump commits every waiting plan, on every shard, whose first transmission
// is due at the current clock reading. Submissions do this implicitly, and
// on a WallClock the pool's commit pump calls it when a plan falls due;
// callers that move a ManualClock call it themselves.
func (p *Pool) Pump() error {
	now := p.clock.Now()
	for i, sh := range p.shards {
		if err := sh.CommitDue(now); err != nil {
			return fmt.Errorf("pool: shard %d: %w", i, err)
		}
	}
	return nil
}

// Drain commits every remaining waiting plan on every shard regardless of
// the clock — the shutdown/flush path. It first stops the commit pump,
// when one runs: after Drain, due plans commit on submissions and Pump.
func (p *Pool) Drain() error {
	p.stopPump()
	for i, sh := range p.shards {
		if err := sh.Drain(); err != nil {
			return fmt.Errorf("pool: shard %d: %w", i, err)
		}
	}
	return nil
}

// SetNodeState moves one node into st: NodeDraining stops placing new work
// on it (committed work runs to completion), NodeDown removes its capacity
// now, and NodeUp returns it to service, displacing nothing. Waiting tasks
// a capacity loss leaves unschedulable are displaced (EventDisplace,
// ReasonNodeUnavailable) and re-admitted on the remaining live shards
// through the normal schedulability test when one passes them. The node id
// is pool-global (shard-major); an unknown node or state is ErrBadConfig.
func (p *Pool) SetNodeState(node int, st service.NodeState) (service.FleetResult, error) {
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	if p.closed.Load() {
		return service.FleetResult{}, fmt.Errorf("pool: closed: %w", errs.ErrClusterBusy)
	}
	if node < 0 || node >= len(p.nodeOf) {
		return service.FleetResult{}, fmt.Errorf("pool: node id %d out of range [0,%d): %w",
			node, len(p.nodeOf), errs.ErrBadConfig)
	}
	ref := p.nodeOf[node]
	disp, err := p.shards[ref.shard].TransitionNode(ref.local, st)
	if err != nil {
		return service.FleetResult{}, err
	}
	p.wake()
	res := service.FleetResult{Node: node, State: st, Displaced: len(disp)}
	for _, t := range disp {
		if p.readmit(t, ref.shard) {
			res.Readmitted++
		}
	}
	return res, nil
}

// readmit offers a displaced task to every other live shard, in index
// order, through the normal Submit path (so its accept, or eventual
// commit, is counted exactly like any other admission at the shard that
// takes it). The originating shard is skipped: the whole-queue test there
// just proved the task no longer fits.
func (p *Pool) readmit(t rt.Task, origin int) bool {
	var start time.Time
	if p.met != nil {
		start = time.Now()
	}
	cands := make([]int, 0, len(p.shards))
	for i := range p.shards {
		if i != origin {
			cands = append(cands, i)
		}
	}
	for len(cands) > 0 {
		var d service.Decision
		var err error
		if _, cands, err = p.offer(context.Background(), &t, cands, &d); err != nil {
			continue // that shard closed underneath us; go on with those after it
		}
		if d.Accepted {
			p.readmissions.Add(1)
			if p.met != nil {
				p.met.Readmission().Observe(time.Since(start).Seconds())
			}
		}
		return d.Accepted
	}
	return false
}

// AddNode grows the shard with the fewest live nodes (ties toward the
// lowest index) by one node with the given cost coefficients and returns
// its pool-global id. Ids are append-only: existing ids never shift.
func (p *Pool) AddNode(nc dlt.NodeCost) (int, error) {
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	if p.closed.Load() {
		return 0, fmt.Errorf("pool: closed: %w", errs.ErrClusterBusy)
	}
	best := 0
	for i := 1; i < len(p.shards); i++ {
		if p.shards[i].LiveNodes() < p.shards[best].LiveNodes() {
			best = i
		}
	}
	local, err := p.shards[best].AddNode(nc)
	if err != nil {
		return 0, err
	}
	p.nodeOf = append(p.nodeOf, nodeRef{shard: best, local: local})
	p.total.Add(1)
	p.wake()
	return len(p.nodeOf) - 1, nil
}

// NodeStates returns every node's lifecycle state indexed by pool-global
// node id.
func (p *Pool) NodeStates() []service.NodeState {
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	per := make([][]service.NodeState, len(p.shards))
	for i, sh := range p.shards {
		per[i] = sh.NodeStates()
	}
	out := make([]service.NodeState, len(p.nodeOf))
	for g, ref := range p.nodeOf {
		out[g] = per[ref.shard][ref.local]
	}
	return out
}

// Close marks the pool closed — subsequent submissions fail with
// ErrClusterBusy — stops the commit pump, closes every shard and then the
// shared event bus. Waiting plans are not committed; call Drain first to
// flush them. Close is idempotent.
func (p *Pool) Close() error {
	p.closed.Store(true)
	p.stopPump()
	for _, sh := range p.shards {
		sh.Close() //nolint:errcheck // always nil; bus ownership is the pool's
	}
	p.bus.Close()
	return nil
}
