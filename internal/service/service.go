// Package service implements the long-lived admission-control service at
// the heart of the v2 API: a goroutine-safe binding of clock + scheduler +
// event fan-out. The paper's schedulability test is exposed not as a batch
// simulation but as a continuously available surface — tasks arrive one at
// a time (from any goroutine), are admitted or rejected against the
// current processor available times, and every decision is published on a
// subscribable event stream. A pluggable Clock lets the identical engine
// run under the discrete-event simulator (the driver package replays
// workloads through it) or under wall-clock time in a deployment.
package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/rt"
)

// Config assembles a Service. Cluster, Policy and Partitioner are
// mandatory; everything else has working defaults.
type Config struct {
	Cluster     *cluster.Cluster
	Policy      rt.Policy
	Partitioner rt.Partitioner

	// Clock supplies the service's notion of now; nil defaults to a
	// ManualClock at 0 (time is then driven by task arrival stamps).
	Clock Clock

	// Observer optionally receives the legacy rt.Observer callbacks
	// exactly as the scheduler emits them (accept/reject inside the
	// schedulability test, commit when a transmission starts). New code
	// should prefer Subscribe.
	Observer rt.Observer

	// MaxQueue bounds the waiting queue: a submission arriving while
	// QueueLen >= MaxQueue is rejected with ErrClusterBusy before the
	// schedulability test runs. 0 means unbounded.
	MaxQueue int

	// Shard tags every decision and event this service emits with a shard
	// index. It is 0 for a standalone service; a pool assigns each member
	// its index.
	Shard int

	// Bus optionally shares an event bus with other services (the pool
	// publishes every shard onto one merged stream). When nil the service
	// creates a private bus and closes it on Close; a shared bus is owned
	// — and closed — by whoever created it.
	Bus *Bus

	// Metrics optionally instruments the service: per-stage admission
	// latency histograms, per-shard outcome counters and load gauges on
	// the bound registry. Shards of a pool share one Metrics. Nil disables
	// instrumentation at zero cost.
	Metrics *Metrics
}

// Decision is the outcome of one Submit: either an admission with the
// plan's resource assignment, or a typed rejection.
type Decision struct {
	TaskID   int64
	Accepted bool
	At       float64 // service time of the decision

	// Shard is the cluster shard that made the decision: always 0 for a
	// standalone Service; for a pool, the shard the placement layer picked
	// (for an accept, the shard the task will run on).
	Shard int

	// Reason is the wire-stable rejection reason: ReasonNone when accepted,
	// otherwise ReasonInfeasible, ReasonDeadlinePast or ReasonBusy. It
	// serializes as its string token (identically in JSON and on the event
	// stream) and still matches the sentinels under errors.Is.
	Reason errs.Reason `json:",omitempty"`

	// Plan details, populated only when accepted. Slices are copies owned
	// by the caller, parallel and in dispatch order.
	Nodes  []int
	Starts []float64
	Alphas []float64
	Est    float64
	Rounds int
}

// Stats is a snapshot of the service's admission and cluster state, read
// entirely from atomics — taking one never contends with the admission
// lock.
type Stats struct {
	Time float64 // clock reading at the snapshot

	Arrivals int // submissions considered (excluding hard input errors)
	Accepts  int
	Rejects  int
	Commits  int

	QueueLen    int // admitted-but-uncommitted tasks
	MaxQueueLen int

	BusyTime     float64 // committed node·time over all nodes
	ReservedIdle float64 // wasted IIT node·time (OPR baselines only)
	LastRelease  float64 // makespan of the committed schedule
	Utilization  float64 // BusyTime / (N × max(Time, LastRelease))

	EventsDropped uint64 // events lost across lagging subscribers

	// Fleet state and churn accounting. NodesUp/NodesDraining/NodesDown
	// partition the (current) node count; Displaced counts admitted tasks
	// that lost their seat to a drain or failure, Readmitted the displaced
	// tasks a pool re-seated on another shard (always 0 for a standalone
	// service), and LateCommits the committed plans whose simulated
	// completion missed the absolute deadline — zero unless committed work
	// was disturbed outside the model.
	NodesUp       int
	NodesDraining int
	NodesDown     int
	Displaced     int
	Readmitted    int
	LateCommits   int

	// Optimistic-admission accounting: Speculative counts decisions whose
	// planning ran off-lock and installed on an unchanged epoch, Conflicts
	// the planning-backed speculations discarded because the epoch moved
	// (each replayed through the serialized path).
	Speculative int
	Conflicts   int

	// Replanning accounting — what each arrival cost the planner: plans the
	// admission tests computed by running the partitioner, and plans they
	// carried over unchanged from the previous schedule (tasks ordered
	// before the arrival).
	PlansComputed int
	PlansReused   int
	// DemandRejects counts the rejects the processor-demand bound decided
	// from the committed release times and the queue's demand alone, before
	// any plan was computed or kept.
	DemandRejects int
}

// RejectRatio returns Rejects/Arrivals (0 when nothing has arrived).
func (st Stats) RejectRatio() float64 {
	if st.Arrivals == 0 {
		return 0
	}
	return float64(st.Rejects) / float64(st.Arrivals)
}

// ExecStats accumulates execution metrics over committed plans, measured
// against each plan's exactly simulated dispatch timeline. The driver
// assembles its Result from them.
type ExecStats struct {
	Committed   int
	RespSum     float64 // Σ (actual completion − arrival)
	SlackSum    float64 // Σ (estimate − actual completion)
	NodeSum     int     // Σ assigned node count
	MaxLateness float64 // max (actual completion − absolute deadline); -Inf before the first commit
}

// Service is the long-lived, concurrency-safe admission-control engine.
// Create one with New; drive it with Submit/SubmitBatch; observe it with
// Subscribe and Stats. All methods may be called from any goroutine.
type Service struct {
	// mu is the shard's one lock: it serializes the scheduler (which has
	// none), its cluster, the parked speculation contexts, exec, dispatch.
	mu    sync.Mutex
	cl    *cluster.Cluster
	sched *rt.Scheduler
	clock Clock
	obs   rt.Observer
	bus   *Bus
	shard int
	// ownBus records whether Close should also close the bus (false when
	// the bus is shared across a pool's shards).
	ownBus bool

	maxQueue  int
	closed    atomic.Bool
	accepting atomic.Bool

	// One ledger: the scheduler's atomics count every outcome of its test,
	// and the service adds only the two rejects it decides itself, before the
	// test runs; Stats() and every /metrics family derive the rest. The
	// cluster-accounting mirrors are refreshed in commitDueLocked, the only
	// place cluster accounting changes. All of it is lock-free to read, so a
	// snapshot never contends with the admission lock and is exact at
	// quiescence.
	pastRejects atomic.Int64  // deadline already past on arrival
	busyRejects atomic.Int64  // waiting queue at MaxQueue
	busyBits    atomic.Uint64 // cluster.BusyTime() as float64 bits
	idleBits    atomic.Uint64 // cluster.ReservedIdle() as float64 bits
	releaseBits atomic.Uint64 // cluster.LastRelease() as float64 bits

	// Fleet mirrors (refreshed under mu by the fleet ops in fleet.go) and
	// churn counters, all lock-free for Stats() and the placement layer.
	nodesUp       atomic.Int64
	nodesDraining atomic.Int64
	nodesDown     atomic.Int64
	nodesTotal    atomic.Int64
	displaced     atomic.Int64
	lateCommits   atomic.Int64

	// Optimistic-admission state (speculate.go): the admit calls in flight
	// and the submits left before a lone submitter stops speculating, the
	// default-on gate, the consecutive-conflict streak driving the adaptive
	// backoff with its probe counter, the install/discard totals surfaced by
	// Stats and /metrics, and the stack of parked speculation contexts,
	// freshest on top.
	inflight      atomic.Int64
	company       atomic.Int64
	speculating   atomic.Bool
	specStreak    atomic.Int64
	specProbe     atomic.Uint64
	specInstalls  atomic.Int64
	specConflicts atomic.Int64
	specFree      []*rt.SpecContext // under mu

	exec     ExecStats    // under mu
	dispatch dlt.Dispatch // under mu: commitDueLocked's re-simulation
}

// New validates the configuration and returns a ready service.
func New(cfg Config) (*Service, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("service: nil cluster: %w", errs.ErrBadConfig)
	}
	if cfg.Partitioner == nil {
		return nil, fmt.Errorf("service: nil partitioner: %w", errs.ErrBadConfig)
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("service: negative MaxQueue %d: %w", cfg.MaxQueue, errs.ErrBadConfig)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = NewManualClock(0)
	}
	if cfg.Shard < 0 {
		return nil, fmt.Errorf("service: negative shard index %d: %w", cfg.Shard, errs.ErrBadConfig)
	}
	sched := rt.NewScheduler(cfg.Cluster, cfg.Policy, cfg.Partitioner)
	if cfg.Observer != nil {
		sched.SetObserver(cfg.Observer)
	}
	bus, ownBus := cfg.Bus, false
	if bus == nil {
		bus, ownBus = NewBus(), true
	}
	s := &Service{
		cl:       cfg.Cluster,
		sched:    sched,
		clock:    clock,
		obs:      cfg.Observer,
		bus:      bus,
		shard:    cfg.Shard,
		ownBus:   ownBus,
		maxQueue: cfg.MaxQueue,
		exec:     ExecStats{MaxLateness: math.Inf(-1)},
	}
	s.accepting.Store(true)
	s.speculating.Store(true)
	s.nodesTotal.Store(int64(cfg.Cluster.N()))
	s.refreshFleetLocked()
	if cfg.Metrics != nil {
		sched.SetStageObserver(cfg.Metrics)
		cfg.Metrics.observeBus(bus)
		cfg.Metrics.observeShard(s)
	}
	return s, nil
}

// Cluster returns the cluster the service manages.
func (s *Service) Cluster() *cluster.Cluster { return s.cl }

// Clock returns the service's clock.
func (s *Service) Clock() Clock { return s.clock }

// Submit runs the admission test for one task and returns the decision.
// The task is taken by value: the service keeps its own copy, so callers
// may reuse or mutate theirs freely afterwards.
//
// A zero Arrival means "arrives now" (the current clock reading). A
// future Arrival advances the service's effective time to it, exactly as
// the discrete-event replay does: every waiting plan whose first
// transmission is due by that instant is committed (irrevocably — a
// committed plan is no longer replannable) before the new task is tested.
// Mixing future-dated arrivals with a live wall clock therefore locks in
// the intervening schedule early; time-stamped replays should feed tasks
// in arrival order, as the driver does.
//
// The error return reports malformed input (ErrBadConfig), a cancelled
// context, or a closed service (ErrClusterBusy) — never infeasibility: an
// infeasible task is a clean decision with Reason ErrInfeasible.
//
// While another submitter is in flight, or was within the last few
// submits, the admission test runs optimistically: planning happens
// off-lock against an epoch-stamped snapshot, and the lock is held only for
// an epoch check plus the install (see speculate.go and SetSpeculation), so
// concurrent submitters plan in parallel. A lone submitter has nothing to
// overlap that with and decides on the live state under the lock. Either
// way the decision stream is bit-for-bit what a serialized execution would
// produce.
func (s *Service) Submit(ctx context.Context, task rt.Task) (Decision, error) {
	// A batch of one, on the caller's stack: only the task's own record in
	// admit reaches the heap.
	tasks, one := [1]rt.Task{task}, [1]Decision{}
	ds, err := s.admit(ctx, tasks[:], one[:0])
	if len(ds) == 0 {
		return Decision{}, err
	}
	return ds[0], err
}

// SubmitBatch submits several tasks under one lock acquisition, in order,
// and returns one decision per considered task. On a hard error the
// decisions made so far are returned alongside it. When Submit would
// speculate, so does the batch: every task is tested off-lock against one
// evolving snapshot and the whole batch group-installs under a single
// epoch check.
func (s *Service) SubmitBatch(ctx context.Context, tasks []rt.Task) ([]Decision, error) {
	return s.admit(ctx, tasks, make([]Decision, 0, len(tasks)))
}

// open reports why the service takes no submissions, when it does not.
func (s *Service) open() error {
	if s.closed.Load() {
		return fmt.Errorf("service: closed: %w", errs.ErrClusterBusy)
	}
	if !s.accepting.Load() {
		return fmt.Errorf("service: draining: %w", errs.ErrClusterBusy)
	}
	return nil
}

// stamp gives the task its arrival — a zero one means now — and returns
// the instant it is decided at, which a future arrival moves forward, and
// the verdict on its fields.
func (s *Service) stamp(t *rt.Task) (now float64, err error) {
	now = s.clock.Now()
	if t.Arrival == 0 && now > 0 {
		t.Arrival = now
	}
	if t.Arrival > now {
		now = t.Arrival
	}
	return now, t.Validate()
}

// gate returns the reject the service decides before the schedulability
// test runs, if any, given the length of the waiting queue once everything
// due at now has left it.
func (s *Service) gate(t *rt.Task, now float64, queued int) errs.Reason {
	if t.AbsDeadline() <= now {
		return errs.ReasonDeadlinePast
	}
	if s.maxQueue > 0 && queued >= s.maxQueue {
		return errs.ReasonBusy
	}
	return errs.ReasonNone
}

// decide walks one task from its stamp to its outcome: sweep what is due,
// pass the gate, run the schedulability test. This is the one place the
// two states a task can be decided on differ. With sc == nil the sweep and
// the test run on the scheduler's live, incrementally maintained state —
// the caller holds s.mu — and the test's outcome lands on the scheduler at
// once. With a context they run on that private copy, off the lock, and
// land nowhere until installLocked finds the epoch unchanged. A non-nil
// error is a hard one; off the lock it only says that the task (malformed,
// a duplicate id, a partitioner's hard error) is for the live walk to
// report. pl is non-nil exactly for an accept.
func (s *Service) decide(sc *rt.SpecContext, t *rt.Task) (now float64, reason errs.Reason, pl *rt.Plan, err error) {
	if now, err = s.stamp(t); err != nil {
		return now, reason, nil, err
	}
	// Start every transmission that is due before the new arrival is
	// considered — the service-side analogue of the driver's commit events.
	var queued int
	if sc == nil {
		if err = s.commitDueLocked(now); err != nil {
			return now, reason, nil, err
		}
		queued = s.sched.QueueLen()
	} else {
		sc.CommitDue(now)
		queued = sc.QueueLen()
	}
	if reason = s.gate(t, now, queued); reason != errs.ReasonNone {
		return now, reason, nil, nil
	}
	if sc == nil {
		if pl, err = s.sched.Admit(t, now); err != nil {
			return now, reason, nil, err
		}
	} else {
		switch s.sched.Speculate(sc, t, now) {
		case rt.SpecFallback:
			return now, reason, nil, errSpecFallback
		case rt.SpecAccept:
			pl = sc.AcceptedPlan()
		}
	}
	if pl == nil {
		reason = errs.ReasonInfeasible
	}
	return now, reason, pl, nil
}

// finishLocked turns an outcome into its event and its Decision. The
// scheduler has counted, and told the legacy observer of, the outcomes of
// its own test; a gate reject never reached it, so both happen here.
func (s *Service) finishLocked(t *rt.Task, now float64, reason errs.Reason, pl *rt.Plan) Decision {
	if pl != nil {
		s.publishLocked(Event{
			Kind: EventAccept, Time: now, Task: *t,
			Nodes: len(pl.Nodes), Est: pl.Est,
		})
		return newDecision(t.ID, now, s.shard, pl)
	}
	if reason != errs.ReasonInfeasible {
		if reason == errs.ReasonBusy {
			s.busyRejects.Add(1)
		} else {
			s.pastRejects.Add(1)
		}
		if s.obs != nil {
			s.obs.OnReject(now, t)
		}
	}
	s.publishLocked(Event{Kind: EventReject, Time: now, Task: *t, Reason: reason})
	return Decision{TaskID: t.ID, At: now, Shard: s.shard, Reason: reason}
}

// newDecision builds an accepted Decision. The caller-owned Starts and
// Alphas copies share one float64 backing array (Starts is capped so an
// append cannot reach into Alphas), halving the slice-header churn on the
// hot accept path.
func newDecision(id int64, now float64, shard int, pl *rt.Plan) Decision {
	k := len(pl.Nodes)
	fbuf := make([]float64, 2*k)
	starts := fbuf[:k:k]
	alphas := fbuf[k:]
	copy(starts, pl.Starts)
	copy(alphas, pl.Alphas)
	nodes := make([]int, k)
	copy(nodes, pl.Nodes)
	return Decision{
		TaskID:   id,
		Accepted: true,
		At:       now,
		Shard:    shard,
		Est:      pl.Est,
		Rounds:   pl.Rounds,
		Nodes:    nodes,
		Starts:   starts,
		Alphas:   alphas,
	}
}

func (s *Service) publishLocked(ev Event) {
	if s.bus.HasSubscribers() {
		ev.Shard = s.shard
		s.bus.Publish(ev)
	}
}

// CommitDue commits every waiting plan whose first transmission start is
// due at the given time, recording execution metrics from the exact
// dispatch timelines. The driver calls it from its commit events; Submit
// calls it implicitly.
func (s *Service) CommitDue(now float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitDueLocked(now)
}

func (s *Service) commitDueLocked(now float64) error {
	// A sweep that fails has still committed the plans before the failing
	// one: they are accounted like any other before the error is returned.
	plans, err := s.sched.CommitDue(now)
	if len(plans) == 0 {
		return err
	}
	for _, pl := range plans {
		// Multi-round plans carry an exact simulated Est, and OPR-style
		// plans complete exactly at Est (all nodes start at r_n); only
		// staggered single-round dispatches need the timeline re-simulated
		// for the actual completion.
		actual := pl.Est
		if pl.Rounds <= 1 && !pl.SimultaneousStart {
			d := &s.dispatch
			if derr := s.cl.Costs().SimulateForInto(d, pl.Nodes, pl.Task.Sigma, pl.Starts, pl.Alphas); derr != nil {
				return fmt.Errorf("service: dispatching task %d: %w", pl.Task.ID, derr)
			}
			actual = d.Completion
		}
		s.exec.Committed++
		s.exec.RespSum += actual - pl.Task.Arrival
		s.exec.SlackSum += pl.Est - actual
		s.exec.NodeSum += len(pl.Nodes)
		l := actual - pl.Task.AbsDeadline()
		if l > s.exec.MaxLateness {
			s.exec.MaxLateness = l
		}
		if absD := pl.Task.AbsDeadline(); l > 1e-9*math.Max(1, math.Abs(absD)) {
			s.lateCommits.Add(1)
		}
		s.publishLocked(Event{
			Kind: EventCommit, Time: now, Task: *pl.Task,
			Nodes: len(pl.Nodes), Est: pl.Est,
		})
	}
	// Cluster accounting only changes on commit: refresh the lock-free
	// mirrors Stats() reads.
	s.busyBits.Store(math.Float64bits(s.cl.BusyTime()))
	s.idleBits.Store(math.Float64bits(s.cl.ReservedIdle()))
	s.releaseBits.Store(math.Float64bits(s.cl.LastRelease()))
	return err
}

// NextCommit returns the earliest pending first-transmission time, or
// ok=false when the waiting queue is empty.
func (s *Service) NextCommit() (at float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.NextCommit()
}

// Pump commits everything due at the current clock reading. Callers that
// submit regularly never need it; it exists for idle periods.
func (s *Service) Pump() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitDueLocked(s.clock.Now())
}

// Drain commits every remaining waiting plan, advancing through the
// pending first-transmission instants regardless of the clock — the
// shutdown/flush analogue of the driver running its queue dry.
func (s *Service) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		at, ok := s.sched.NextCommit()
		if !ok {
			return nil
		}
		if err := s.commitDueLocked(at); err != nil {
			return err
		}
	}
}

// Stats returns a snapshot of the admission counters and cluster
// accounting. It is lock-free: every field is read from an atomic, so a
// scrape or /v1/stats poll never contends with the admission lock. A
// snapshot taken while a submission is in flight may be mid-update by that
// one task; at quiescence it is exact, field for field, to what the
// lock-held implementation returned.
func (s *Service) Stats() Stats {
	now := s.clock.Now()
	ss := s.sched.Stats()
	rejects := ss.Rejects + int(s.pastRejects.Load()+s.busyRejects.Load())
	computed, reused := s.sched.PlanCounts()
	busy := math.Float64frombits(s.busyBits.Load())
	rel := math.Float64frombits(s.releaseBits.Load())
	st := Stats{
		Time:          now,
		Arrivals:      ss.Accepts + rejects,
		Accepts:       ss.Accepts,
		Rejects:       rejects,
		Commits:       ss.Commits,
		QueueLen:      ss.QueueLen,
		MaxQueueLen:   ss.MaxQueueLen,
		BusyTime:      busy,
		ReservedIdle:  math.Float64frombits(s.idleBits.Load()),
		LastRelease:   rel,
		EventsDropped: s.bus.DroppedTotal(),
		NodesUp:       int(s.nodesUp.Load()),
		NodesDraining: int(s.nodesDraining.Load()),
		NodesDown:     int(s.nodesDown.Load()),
		Displaced:     int(s.displaced.Load()),
		LateCommits:   int(s.lateCommits.Load()),
		Speculative:   int(s.specInstalls.Load()),
		Conflicts:     int(s.specConflicts.Load()),
		PlansComputed: int(computed),
		PlansReused:   int(reused),
		DemandRejects: int(s.sched.DemandRejects()),
	}
	if span := math.Max(now, rel); span > 0 {
		st.Utilization = busy / (float64(s.nodesTotal.Load()) * span)
	}
	return st
}

// Exec returns the accumulated execution metrics of committed plans.
func (s *Service) Exec() ExecStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec
}

// Subscribe attaches a consumer to the decision/lifecycle event stream
// with the given channel buffer. The returned cancel function detaches it
// and closes the channel. A consumer that falls behind loses events
// (counted in Stats.EventsDropped) rather than blocking admission control.
func (s *Service) Subscribe(buffer int) (<-chan Event, func()) {
	return s.bus.Subscribe(buffer)
}

// SubscribeStream attaches a consumer and returns its Subscription handle,
// whose Dropped counter lets the consumer detect its own event gaps
// (Stats.EventsDropped only reports the bus-wide total).
func (s *Service) SubscribeStream(buffer int) *Subscription {
	return s.bus.SubscribeStream(buffer)
}

// SetAccepting flips the admission gate: while false, every submission
// fails fast with ErrClusterBusy (a hard error, not a decision) and the
// queue, commits and event stream keep operating. It is the first step of
// a graceful drain — stop accepting, Drain, then Close — and is reversible
// until Close.
func (s *Service) SetAccepting(accepting bool) { s.accepting.Store(accepting) }

// Accepting reports whether the admission gate is open: true until
// SetAccepting(false) or Close. It is lock-free — the health endpoint
// polls it without touching the admission lock.
func (s *Service) Accepting() bool { return s.accepting.Load() && !s.closed.Load() }

// QueueLen returns the number of admitted-but-uncommitted tasks — the
// cheap load signal the pool's placement layer samples on every submit.
func (s *Service) QueueLen() int { return s.sched.QueueLen() }

// Shard returns the shard index this service stamps on its decisions and
// events (0 for a standalone service).
func (s *Service) Shard() int { return s.shard }

// Close marks the service closed — subsequent submissions fail with
// ErrClusterBusy — and, when the service owns its bus, closes every
// subscriber channel (a pool owns the bus it shares across shards and
// closes it itself). Waiting plans are not committed; call Drain first to
// flush them. Close is idempotent.
func (s *Service) Close() error {
	s.closed.Store(true)
	if s.ownBus {
		s.bus.Close()
	}
	return nil
}

// CombineObservers fans legacy rt.Observer callbacks out to several
// observers (nil entries are skipped). It replaces the ad-hoc fan-out
// types the CLIs used to define.
func CombineObservers(obs ...rt.Observer) rt.Observer {
	flat := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	return flat
}

type multiObserver []rt.Observer

func (m multiObserver) OnAccept(now float64, t *rt.Task, p *rt.Plan) {
	for _, o := range m {
		o.OnAccept(now, t, p)
	}
}

func (m multiObserver) OnReject(now float64, t *rt.Task) {
	for _, o := range m {
		o.OnReject(now, t)
	}
}

func (m multiObserver) OnCommit(now float64, p *rt.Plan) {
	for _, o := range m {
		o.OnCommit(now, p)
	}
}
