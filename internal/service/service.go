// Package service implements the long-lived admission-control service at
// the heart of the v2 API: a goroutine-safe binding of clock + scheduler +
// event fan-out. The paper's schedulability test is exposed not as a batch
// simulation but as a continuously available surface — tasks arrive one at
// a time (from any goroutine), are admitted or rejected against the
// current processor available times, and every decision is published on a
// subscribable event stream. A pluggable Clock lets the identical engine
// run under a simulated clock (the driver package replays workloads
// through it) or under wall-clock time in a deployment.
package service

import (
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
)

// Config assembles a Service. Cluster, Policy and Partitioner are
// mandatory; everything else has working defaults.
type Config struct {
	// Cluster belongs to the service once passed in: change it only
	// through the service, whose scheduler is its only writer.
	Cluster     *cluster.Cluster
	Policy      rt.Policy
	Partitioner rt.Partitioner

	// Clock supplies the service's notion of now; nil defaults to a
	// ManualClock at 0 (time is then driven by task arrival stamps).
	Clock Clock

	// Observer optionally receives the legacy rt.Observer callbacks. This
	// is their one installation path (rtdls.WithObserver lands here): the
	// service makes every call under its lock, next to the event it
	// publishes — one accept or reject per decided task, whatever decided
	// it, and one commit per plan whose transmission starts. New code
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

	// Plan details, populated only when accepted; parallel and in dispatch
	// order. A decision written to a Decision whose slices can hold the plan
	// (SubmitTo on a reused one) is copied into that storage; otherwise the
	// slices are cut cap-limited from chunks the service shares among
	// decisions: an append copies, and a retained Decision keeps its chunks
	// (at most 4 KB each) reachable. So a caller that reuses a Decision and
	// keeps an earlier one copies that one's slices first.
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

	// Speculative and Conflicts are always 0: every submit decides under
	// its shard's lock, and nothing is planned off it. They stay only for
	// the benchmark harness, which still reads them.
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
	// none), its cluster, exec and the arenas, and every submit holds it for
	// its whole walk.
	mu    sync.Mutex
	cl    *cluster.Cluster
	sched *rt.Scheduler
	clock Clock
	wall  bool // the clock has Until: a wall clock, which no arrival moves
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

	exec ExecStats // under mu

	// Task records (under mu): the records of tasks that died, and the arena
	// a record is cut from when there is none (rt.Carve). The copies of
	// every accepted Decision come from the other two arenas. cur is the
	// copy a task is decided on until it passes the demand bound.
	cur    rt.Task
	spare  []*rt.Task
	tasks  []rt.Task
	ints   []int
	floats []float64
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
	bus, ownBus := cfg.Bus, false
	if bus == nil {
		bus, ownBus = NewBus(), true
	}
	_, wall := clock.(interface{ Until(float64) time.Duration })
	s := &Service{
		cl:       cfg.Cluster,
		sched:    sched,
		clock:    clock,
		wall:     wall,
		obs:      cfg.Observer,
		bus:      bus,
		shard:    cfg.Shard,
		ownBus:   ownBus,
		maxQueue: cfg.MaxQueue,
		exec:     ExecStats{MaxLateness: math.Inf(-1)},
	}
	s.accepting.Store(true)
	s.nodesTotal.Store(int64(cfg.Cluster.N()))
	s.refreshFleetLocked()
	if cfg.Metrics != nil {
		sched.SetStageObserver(cfg.Metrics)
		cfg.Metrics.observeBus(bus)
		cfg.Metrics.observeShard(s)
	}
	return s, nil
}

// Clock returns the service's clock.
func (s *Service) Clock() Clock { return s.clock }

// Costs returns the cluster's current cost model (AddNode replaces it).
func (s *Service) Costs() *dlt.CostModel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cl.Costs()
}

// Submit runs the admission test for one task and returns the decision.
// The task is taken by value, so callers may reuse or mutate theirs freely
// afterwards. The service decides on a copy of its own, and a task that
// passes the demand bound on a record of its own, the *Task an Observer
// sees for an accept; the record goes back to the shard's free list when
// the task dies: at once when it is not admitted, else when it commits or
// is displaced. The Decision and every Event carry copies.
//
// A zero Arrival means "arrives now" (the current clock reading). On a
// clock its caller moves (a ManualClock) a future Arrival advances the
// service's effective time to it, exactly as the driver's simulated replay
// does: every waiting plan whose first transmission is due by that instant
// is committed (irrevocably — a committed plan is no longer replannable)
// before the new task is tested; time-stamped replays should feed tasks in
// arrival order, as the driver does. On a clock with Until (a WallClock) the
// instant stays at the clock's reading, so a future Arrival is malformed
// input (ErrBadConfig) and commits nothing early.
//
// The error return reports malformed input (ErrBadConfig), a cancelled
// context, or a closed service (ErrClusterBusy) — never infeasibility: an
// infeasible task is a clean decision with Reason ErrInfeasible.
//
// The whole decision, from the due-commit sweep to the schedulability
// test, runs under the shard's lock, so concurrent submitters are decided
// one at a time, each against the state the previous one left.
func (s *Service) Submit(ctx context.Context, task rt.Task) (Decision, error) {
	var d Decision
	err := s.SubmitTo(ctx, &task, &d)
	return d, err
}

// SubmitTo is Submit writing the decision to d, which a hard error leaves
// zero: the pool's walk decides a task on shard after shard in one place.
// The task is only read. An accept copies its plan into d's own Nodes,
// Starts and Alphas when their capacity holds it, and a reject keeps them,
// truncated, so a caller that reuses one Decision per submit allocates no
// copies; a Decision kept from an earlier call is overwritten unless it was
// copied.
func (s *Service) SubmitTo(ctx context.Context, task *rt.Task, d *Decision) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.decide(ctx, task, d); err != nil {
		*d = Decision{}
		return err
	}
	return nil
}

// SubmitBatch submits several tasks under one lock acquisition, in order,
// and returns one decision per considered task. On a hard error the
// decisions made so far are returned alongside it.
func (s *Service) SubmitBatch(ctx context.Context, tasks []rt.Task) ([]Decision, error) {
	out := make([]Decision, len(tasks))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range tasks {
		if err := s.decide(ctx, &tasks[i], &out[i]); err != nil {
			return out[:i], err
		}
	}
	return out, nil
}

// newTask returns a task record under s.mu: the last one freed, or one cut
// from the arena.
func (s *Service) newTask() *rt.Task {
	if k := len(s.spare); k > 0 {
		t := s.spare[k-1]
		s.spare = s.spare[:k-1]
		return t
	}
	return &rt.Carve(&s.tasks, 1)[0]
}

// freeTask gives back, under s.mu, the record of a task that died: decided
// without a plan, failed, committed or displaced. It is cleared, so that a
// stale read sees a zero task.
func (s *Service) freeTask(t *rt.Task) {
	*t = rt.Task{}
	s.spare = append(s.spare, t)
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

// decide is the shard's one decision path: it walks one task, under s.mu,
// from its stamp to its outcome and writes the Decision to d. The task is
// copied to s.cur and gets its arrival — a zero one means now — and the
// instant it is decided at, which a future arrival moves forward unless the
// clock is a wall clock (Screen then reports the arrival an error). What is
// due by then commits, when anything is. Then the plan-less rejects: the
// service's own two, a deadline already past and a full waiting queue, and
// the scheduler's Screen with the demand bound. Only a task that passes
// them takes a record and runs the schedulability test on the scheduler's
// live, incrementally maintained state. A non-nil error is a hard one and
// leaves d alone.
func (s *Service) decide(ctx context.Context, task *rt.Task, d *Decision) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := s.open(); err != nil {
		return err
	}
	t := &s.cur
	*t = *task
	now := s.clock.Now()
	if t.Arrival == 0 && now > 0 {
		t.Arrival = now
	}
	if t.Arrival > now && !s.wall {
		now = t.Arrival
	}
	if err := t.Validate(); err != nil {
		return err
	}
	// Start every transmission that is due before the new arrival is
	// considered — the service-side analogue of the driver's commit events.
	if s.sched.Due(now) {
		if err := s.commitDueLocked(now); err != nil {
			return err
		}
	}
	reason := errs.ReasonInfeasible
	switch {
	case t.AbsDeadline() <= now:
		reason = errs.ReasonDeadlinePast
		s.pastRejects.Add(1)
	case s.maxQueue > 0 && s.sched.QueueLen() >= s.maxQueue:
		reason = errs.ReasonBusy
		s.busyRejects.Add(1)
	default:
		refused, err := s.sched.Screen(t, now)
		if err != nil {
			return err
		}
		if !refused {
			// The scheduler and its plans hold the record while the task
			// waits; a task that is not admitted dies here, a partitioner's
			// panic included: the deferred free covers every exit short of
			// an accept.
			rec := s.newTask()
			*rec = *t
			var pl *rt.Plan
			defer func() {
				if pl == nil {
					s.freeTask(rec)
				}
			}()
			if pl, err = s.sched.Admit(rec, now); pl != nil {
				s.accepted(rec, now, pl, d)
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
	s.rejected(t, now, reason, d)
	return nil
}

// accepted and rejected announce an outcome — its observer callback and
// its event, built only when someone subscribes — and write its Decision:
// the one place every outcome is announced. The scheduler has counted the
// outcomes it decided; decide counts the service's own rejects.
func (s *Service) accepted(t *rt.Task, now float64, pl *rt.Plan, d *Decision) {
	if s.obs != nil {
		s.obs.OnAccept(now, t, pl)
	}
	if s.bus.HasSubscribers() {
		s.publishLocked(Event{
			Kind: EventAccept, Time: now, Task: *t,
			Nodes: len(pl.Nodes), Est: pl.Est,
		})
	}
	s.newDecision(d, t.ID, now, pl)
}

func (s *Service) rejected(t *rt.Task, now float64, reason errs.Reason, d *Decision) {
	if s.obs != nil {
		s.obs.OnReject(now, t)
	}
	if s.bus.HasSubscribers() {
		s.publishLocked(Event{Kind: EventReject, Time: now, Task: *t, Reason: reason})
	}
	*d = Decision{
		TaskID: t.ID, At: now, Shard: s.shard, Reason: reason,
		Nodes: d.Nodes[:0], Starts: d.Starts[:0], Alphas: d.Alphas[:0],
	}
}

// newDecision writes an accepted Decision to d under s.mu. Its Nodes,
// Starts and Alphas are copied into d's own storage when all three can hold
// the plan; otherwise Nodes, and Starts and Alphas as one capped block, are
// cut from the service's arenas.
func (s *Service) newDecision(d *Decision, id int64, now float64, pl *rt.Plan) {
	k := len(pl.Nodes)
	nodes, starts, alphas := d.Nodes[:0], d.Starts[:0], d.Alphas[:0]
	if cap(nodes) < k || cap(starts) < k || cap(alphas) < k {
		fbuf := rt.Carve(&s.floats, 2*k)
		starts, alphas = fbuf[:0:k], fbuf[k:k]
		nodes = rt.Carve(&s.ints, k)[:0]
	}
	*d = Decision{
		TaskID:   id,
		Accepted: true,
		At:       now,
		Shard:    s.shard,
		Est:      pl.Est,
		Rounds:   pl.Rounds,
		Nodes:    append(nodes, pl.Nodes...),
		Starts:   append(starts, pl.Starts...),
		Alphas:   append(alphas, pl.Alphas...),
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
// dispatch timelines the plans were released by. The driver calls it from
// its commit events; Submit calls it implicitly.
func (s *Service) CommitDue(now float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitDueLocked(now)
}

// commitDueLocked commits what is due, announces each committed plan to the
// observer and the bus, and adds it to exec at its actual completion:
// Est for multi-round plans (an exact simulation) and for OPR-style ones
// (all nodes start at r_n), the latest Release otherwise — a staggered
// single-round plan releases each node at its exact finish (Plan.Release).
// Then the committed task's record is freed.
func (s *Service) commitDueLocked(now float64) error {
	// A sweep that fails has still committed the plans before the failing
	// one: they are accounted like any other before the error is returned.
	plans, err := s.sched.CommitDue(now)
	if len(plans) == 0 {
		return err
	}
	for _, pl := range plans {
		if s.obs != nil {
			s.obs.OnCommit(now, pl)
		}
		actual := pl.Est
		if pl.Rounds <= 1 && !pl.SimultaneousStart {
			actual = slices.Max(pl.Release)
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
		if s.bus.HasSubscribers() {
			s.publishLocked(Event{
				Kind: EventCommit, Time: now, Task: *pl.Task,
				Nodes: len(pl.Nodes), Est: pl.Est,
			})
		}
		s.freeTask(pl.Task)
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
// with the given channel buffer and returns its Subscription handle. Cancel
// detaches it and closes the channel. A consumer that falls behind loses
// events (counted in Stats.EventsDropped, and per subscriber by Dropped)
// rather than blocking admission control.
func (s *Service) Subscribe(buffer int) *Subscription {
	return s.bus.Subscribe(buffer)
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
