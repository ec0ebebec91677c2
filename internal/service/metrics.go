package service

import (
	"strconv"
	"sync"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
)

// Metrics binds a metrics.Registry to the admission engine: per-stage
// admission latency histograms (implementing rt.StageObserver), per-shard
// outcome counters and load gauges, and the event-stream drop counter. One
// Metrics instance is shared by every shard of a pool — series are
// registered idempotently, keyed by shard index.
//
// The per-shard families keep no state of their own: each is read at scrape
// time from the atomics Service.Stats() reads, so a decision costs the
// instrumented engine nothing extra, /metrics and /v1/stats cannot
// disagree, and a scrape never touches the scheduler or service locks.
type Metrics struct {
	reg   *metrics.Registry
	stage [rt.NumStages]*metrics.Histogram

	busOnce sync.Once

	readmitOnce sync.Once
	readmitHist *metrics.Histogram
}

// NewMetrics returns a Metrics bound to the registry, with the per-stage
// admission histograms pre-registered. Pass it to service.Config.Metrics
// or pool.Config.Metrics; nil disables instrumentation entirely.
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{reg: reg}
	for st := rt.StageCandidate; int(st) < rt.NumStages; st++ {
		m.stage[st] = reg.Histogram("rtdls_admission_stage_seconds",
			"Wall-clock seconds spent in each admission pipeline stage.",
			metrics.Labels{"stage": st.String()})
	}
	return m
}

// Registry returns the underlying registry (for mounting /metrics and for
// registering additional instruments alongside the engine's).
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// ObserveStage implements rt.StageObserver: one sample per pipeline stage
// per admission test, recorded on atomic histograms.
func (m *Metrics) ObserveStage(stage rt.Stage, seconds float64) {
	if int(stage) < len(m.stage) {
		m.stage[stage].Observe(seconds)
	}
}

// observeShard registers the per-shard families of s, each a function of
// its Stats. The invariant the wire smoke test asserts — submits ==
// accepts + rejects — holds per shard: every submission attempt a shard
// decides (spillover retries included) is exactly one accept or one reject
// there. The first service bound to a shard index is the one exposed.
func (m *Metrics) observeShard(s *Service) {
	shard := strconv.Itoa(s.shard)
	lbl := metrics.Labels{"shard": shard}
	stat := func(field func(Stats) int) func() float64 {
		return func() float64 { return float64(field(s.Stats())) }
	}
	m.reg.CounterFunc("rtdls_submits_total",
		"Submission attempts per shard (a spillover retry counts at every shard it touches).", lbl,
		stat(func(st Stats) int { return st.Arrivals }))
	m.reg.CounterFunc("rtdls_accepts_total",
		"Tasks admitted by the schedulability test, per shard.", lbl,
		stat(func(st Stats) int { return st.Accepts }))
	m.reg.CounterFunc("rtdls_commits_total",
		"Plans committed (first transmission started), per shard.", lbl,
		stat(func(st Stats) int { return st.Commits }))
	// Stats sums the rejects; the reason split is the ledger beneath it: the
	// scheduler's test decides infeasible, the service's gate the other two.
	for reason, count := range map[errs.Reason]func() float64{
		errs.ReasonInfeasible:   func() float64 { return float64(s.sched.Stats().Rejects) },
		errs.ReasonDeadlinePast: func() float64 { return float64(s.pastRejects.Load()) },
		errs.ReasonBusy:         func() float64 { return float64(s.busyRejects.Load()) },
	} {
		m.reg.CounterFunc("rtdls_rejects_total",
			"Tasks rejected, per shard and wire reason token.",
			metrics.Labels{"shard": shard, "reason": reason.String()}, count)
	}
	m.reg.GaugeFunc("rtdls_queue_depth",
		"Admitted-but-uncommitted tasks right now, per shard.", lbl,
		stat(func(st Stats) int { return st.QueueLen }))
	m.reg.GaugeFunc("rtdls_queue_depth_max",
		"High-water mark of the waiting queue, per shard.", lbl,
		stat(func(st Stats) int { return st.MaxQueueLen }))
	m.reg.GaugeFunc("rtdls_utilization",
		"Committed busy time over node-time capacity, per shard.", lbl,
		func() float64 { return s.Stats().Utilization })
	m.reg.GaugeFunc("rtdls_busy_time_seconds",
		"Committed node-time (node-seconds of busy capacity), per shard.", lbl,
		func() float64 { return s.Stats().BusyTime })
	m.reg.CounterFunc("rtdls_displacements_total",
		"Admitted-but-uncommitted tasks that lost their seat to a node drain or failure, per shard.", lbl,
		stat(func(st Stats) int { return st.Displaced }))
	m.reg.CounterFunc("rtdls_admission_plans_computed_total",
		"Plans the admission tests computed by running the partitioner, per shard.", lbl,
		stat(func(st Stats) int { return st.PlansComputed }))
	m.reg.CounterFunc("rtdls_admission_plans_reused_total",
		"Plans the admission tests carried over unchanged from the previous schedule, per shard.", lbl,
		stat(func(st Stats) int { return st.PlansReused }))
	m.reg.CounterFunc("rtdls_admission_demand_rejects_total",
		"Rejects the processor-demand bound decided before any plan was computed or kept, per shard.", lbl,
		stat(func(st Stats) int { return st.DemandRejects }))
	for state, count := range map[cluster.NodeState]func(Stats) int{
		cluster.NodeUp:       func(st Stats) int { return st.NodesUp },
		cluster.NodeDraining: func(st Stats) int { return st.NodesDraining },
		cluster.NodeDown:     func(st Stats) int { return st.NodesDown },
	} {
		m.reg.GaugeFunc("rtdls_fleet_nodes",
			"Cluster nodes by lifecycle state, per shard.",
			metrics.Labels{"shard": shard, "state": state.String()}, stat(count))
	}
}

// Readmission returns (registering on first use) the pool-level histogram
// of seconds between a task's displacement and its re-admission on another
// shard.
func (m *Metrics) Readmission() *metrics.Histogram {
	m.readmitOnce.Do(func() {
		m.readmitHist = m.reg.Histogram("rtdls_readmission_seconds",
			"Wall-clock seconds from a task's displacement to its re-admission on another shard.", nil)
	})
	return m.readmitHist
}

// observeBus registers the event-drop counter against the given bus. Only
// the first bus wins (a pool's shards all share one bus, so this is the
// natural fit); registration is idempotent.
func (m *Metrics) observeBus(b *Bus) {
	m.busOnce.Do(func() {
		m.reg.CounterFunc("rtdls_events_dropped_total",
			"Events lost across all lagging event-stream subscribers.", nil,
			func() float64 { return float64(b.DroppedTotal()) })
	})
}
