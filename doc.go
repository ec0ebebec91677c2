// Package rtdls is a Go implementation of real-time divisible load
// scheduling for clusters with different processor available times,
// reproducing Lin, Lu, Deogun and Goddard, "Real-Time Divisible Load
// Scheduling with Different Processor Available Times" (University of
// Nebraska–Lincoln, TR-UNL-CSE-2007-0013; ICPP 2007).
//
// Arbitrarily divisible (embarrassingly parallel) workloads — common in
// high-energy physics pipelines such as CMS and ATLAS — can be split into
// any number of independent chunks. When such loads carry deadlines, a
// cluster RMS must decide on admission whether a task can finish in time.
// Classic schedulers wait until enough processors are simultaneously free,
// wasting the Inserted Idle Times (IITs) on processors that freed up early.
// The paper's contribution, implemented here, transforms the homogeneous
// cluster with staggered availability into an equivalent heterogeneous
// cluster that is allocated all at once, applies divisible load theory to
// partition the task so that every processor starts as soon as it is free
// yet all finish (nearly) together, and proves the resulting completion
// estimate safe for hard real-time admission control.
//
// The paper's test is online — tasks arrive one at a time and are admitted
// or rejected against the current processor available times — and since
// 2.0 the API is organised around exactly that surface. The package offers
// three levels:
//
//   - Service: the long-lived, goroutine-safe admission-control service.
//     Build one with New and functional options, submit tasks from any
//     goroutine with Submit/SubmitBatch, follow decisions on the Subscribe
//     event stream or the Stats snapshot, and swap the Clock to run the
//     identical engine under simulated or wall-clock time:
//
//     svc, err := rtdls.New(
//     rtdls.WithNodes(16),
//     rtdls.WithParams(rtdls.Params{Cms: 1, Cps: 100}),
//     rtdls.WithPolicy(rtdls.EDF),
//     rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
//     )
//     dec, err := svc.Submit(ctx, rtdls.Task{ID: 1, Sigma: 200, RelDeadline: 2800})
//
//     Failures are typed: errors.Is against ErrInfeasible, ErrDeadlinePast,
//     ErrClusterBusy and ErrBadConfig distinguishes clean rejections from
//     bad input at every layer.
//
//   - Simulate / Workload: one-call simulated replay of a synthetic
//     workload through the same service engine, returning admission and
//     execution metrics. (The deprecated 1.x Run/Config shims were removed
//     in 3.0.0; internal/driver still proves the replay reproduces the
//     pre-redesign results bit for bit.)
//
//   - Model: the heterogeneous-model mathematics itself (Eqs. 1–7 of the
//     paper) for analysis work.
//
// Beyond the paper, the whole stack is generalised from one shared
// (Cms, Cps) cost pair to per-node coefficients: pass WithNodeCosts or
// WithCostSpread (or build a cost table with NewCostModel), partition
// mixed-speed node sets with NewHeteroModel, and note that a uniform cost
// table reproduces the homogeneous scheduler bit for bit. Heterogeneous
// plans are admitted against exactly simulated dispatch timelines,
// preserving the hard real-time guarantee without the paper's common-Cms
// assumption.
//
// For scale-out, the service shards into a multi-cluster admission pool
// (internal/pool), after the multi-source divisible-load systems of
// Wu/Cao/Robertazzi: WithShards(k) runs K independent clusters — each
// with its own scheduler and lock, sharing one clock and one
// shard-tagged event stream — behind the identical Service surface, and
// WithPlacement selects the routing layer (RoundRobin, LeastLoaded,
// PowerOfTwoChoices, or Spillover, which retries rejected tasks on the
// remaining shards before giving a final reject). WithShardNodes and
// WithShardNodeCosts describe heterogeneous fleets of differently sized
// and priced clusters. Decisions and events report the placing shard,
// Stats aggregates the fleet, and ShardStats/ShardCosts expose per-shard
// views; a shard's cluster is changed only through the engine. A shard
// commits what is due on its next submission, on Pump or on Drain; on a
// WallClock the pool also runs one commit pump, a goroutine that calls Pump
// when the earliest waiting plan falls due, so a due plan commits on time
// with no traffic. Close and Drain stop it, and a ManualClock engine, whose
// caller moves time, runs none. The pool is the one engine: New and
// Simulate always build one, and the default is the K = 1 pool, the
// paper's one cluster — no special case. A one-shard pool reproduces its
// bare shard decision for decision, and a K-shard RoundRobin pool
// reproduces K independent one-cluster simulations decision for decision.
// See examples/pool.
//
// Since 3.0.0 the same engine serves over the wire. cmd/dlserve is an
// HTTP/JSON front end (internal/server) exposing submit, batch, stats, a
// Server-Sent-Events decision stream with explicit gap notices for lossy
// consumers, and a graceful SIGTERM drain that never loses a committed
// task. Every rejection carries a wire-stable Reason token and integer
// Code (see Reasons, ParseReason and Code in this package): the HTTP
// status of a rejected submission is exactly the reason's code, busy
// rejections carry a Retry-After derived from the engine's queue slack,
// and Decision.Reason exposes the same token in process while remaining
// errors.Is-matchable against the sentinels. cmd/dlload load-tests the
// wire — closed-loop or open-loop (Poisson, bursty or replayed arrivals,
// measured against intended arrival instants to avoid coordinated
// omission) — and emits an HDR-style latency/outcome report.
//
// Since 3.2.0 the fleet is dynamic. SetNodeState moves a node into one of
// three states: NodeDraining stops placing new work on it (committed work
// finishes), NodeDown removes its capacity now, and NodeUp returns it to
// service; AddNode grows the cluster. Both work on a Service and over
// the wire (POST /v1/nodes/{id}/{drain|fail|restore}).
// On capacity loss the scheduler re-validates every admitted-but-
// uncommitted plan through the normal schedulability test; tasks that no
// longer fit are displaced (EventDisplace, ReasonNodeUnavailable,
// ErrDisplaced) and, on a pool, re-admitted on another shard when one
// passes the test. Committed plans are never broken — churn displaces,
// it does not create deadline misses — and a fail-then-restore cycle
// with an empty interim queue is property-tested to leave the scheduler
// bit-identical to one that never failed. Churn is scriptable with one
// grammar everywhere (ParseChurnSchedule; -churn on dlsim, dlserve and
// dlload): ";"-separated "t=<offset> <drain|fail|restore> <node>"
// entries, deterministic under the simulated clock via WithChurn and
// chaos-style over the wire from the load generator. See examples/churn.
//
// The stack is observable end to end without external dependencies:
// NewMetricsRegistry plus WithMetrics install an atomic instrumentation
// layer (internal/metrics) that the server renders as Prometheus text
// exposition on GET /metrics — per-stage admission latency histograms
// (candidate scan, planning, schedulability check, commit), per-shard
// accept/reject/commit counters, queue-depth and utilization gauges, and
// HTTP request metrics. The per-shard families are read at scrape time
// from the atomics Stats reads (one ledger: the scheduler's outcome
// counters plus the service's two gate rejects), so an instrumented
// decision does no extra work and a scrape never contends with a
// shard's lock. dlserve adds net/http/pprof behind
// -pprof-addr and structured log/slog request logging with request-id
// propagation; dlload scrapes /metrics around each run and embeds the
// server-side stage/shard deltas in its report.
//
// Since 3.3.0 admission cost is sub-linear in the fleet size. The
// scheduler's availability view is an order-statistic index (one sorted
// array of eligibility, release time and node id, cut into 64-slot blocks
// behind a block directory) kept base-synced with the committed cluster
// state by the cluster's only writer, the scheduler, so a steady-state
// schedulability test rolls back the previous test's tentative assignments
// with one bisection and one in-block shift per changed node instead of
// re-sorting all n nodes, and "the earliest k nodes" is a read of the
// leading blocks. A sound
// infeasibility fast-reject runs before any planning: tasks that provably
// cannot meet their deadline even on the earliest possible release times
// (one order-statistic probe) are rejected without replanning
// the queue, leaving the admission decision stream bit-for-bit unchanged
// — a property enforced by differential and fuzz suites against a
// full-sort reference implementation. Per-submit cost is flat from 100
// to 10,000 nodes; make bench-gate, the CI bench job, gates the growth
// ratio over the BenchmarkSubmit/nodes=N sweep (TestGateIndexGrowth).
//
// Within a shard every submission decides under the shard's one lock:
// the due-commit sweep, the service's own gate (deadline already past, a
// full queue) and the whole schedulability test run on the scheduler's
// live state, so concurrent submitters are decided one at a time and the
// event stream, published under the same lock, is the linearization
// (property-tested by replaying a concurrent run's order through a fresh
// service). Counters, fleet mirrors and metrics are atomics, so Stats,
// placement and a scrape never take the lock. dlserve's
// -mutex-profile-fraction/-block-profile-rate expose the lock waits on the
// -pprof-addr listener. Planning off the lock on a snapshot (3.4.0 to
// 6.1.0) measured slower than this on every contended width on 2 cores,
// and 7.0.0 deleted it.
//
// The schedulability test is incremental: the paper's Fig. 2 rebuilds the
// tentative schedule of the whole waiting queue on every arrival, where
// this engine keeps the accepted schedule applied on the availability
// index, one checkpoint per queue position. An arrival ordered at
// position p lets each of the p tasks before it keep its current plan,
// with no partitioner call, where the scheduler can tell a fresh Plan
// would return it — the committed state changed only by commits of the
// queue's head, no start time is re-clamped, and the node-count floor
// ñ_min at the new instant has not passed the plan's node count —
// rewinds the index only to checkpoint p, and plans the arrival and the
// tasks ordered after it. Due commits cut the head of the index's undo
// log instead of rolling back and re-applying, so a steady stream of
// submits never re-copies the cluster or rebuilds the index. The test is
// one function over an explicit queue state, and around it every entrance
// — Submit, SubmitBatch (its tasks' Submits, in input order), a pool's
// spillover retry or re-admission, a simulated arrival — walks one stamp,
// sweep, gate, test and finish (service.decide), one offer loop (pool) and
// one simulation loop (driver). Decisions and plans are bit-for-bit those of a
// whole-queue replan (lockstep suites and FuzzIncrementalAdmission
// against a hint-free reference); node churn, fleet growth and
// a failed commit fall back to one. Stats.PlansComputed/PlansReused
// and rtdls_admission_plans_{computed,reused}_total per shard report the
// replanning each arrival caused; TestQueuedCounts (internal/rt) holds a
// late-deadline arrival behind 128 waiting tasks to one fresh plan and 128
// kept ones, each sealed: the scheduler keeps a plan sealed at its task's
// slack with one comparison and no Plan call, so that arrival makes one.
//
// Before any of that — at the front of each shard's one decision path,
// after the due-commit sweep (which runs only when the queue's cached
// earliest first start says something is due) and the service's own gates,
// before the task takes a record (rt.Scheduler.Screen) — an overload reject
// is decided by a processor-demand bound, EDF's schedulability criterion
// carried to divisible loads: any
// schedule, whatever the partitioner, gives task i at least σ_i·Cps
// node-seconds (σ_i times the fastest node's Cps on a heterogeneous table)
// between the committed release times and its deadline, so for every
// deadline d of the merged queue the demand due by d cannot exceed
// Σ_nodes max(0, d − max(release, now)) over the placeable nodes. A
// violation — beyond the tolerance the deadline comparisons grant — is a
// necessary-condition failure of every schedule, hence of the one Fig. 2
// would build: the arrival is rejected with no view movement and no Plan
// call, and the decision stream is unchanged. Under EDF the demand is a
// prefix sum over the queue (the arrival's own deadline and every later
// one are checked); a FIFO queue gets the own-deadline check only. The
// capacity comes from a summary of the committed release times kept beside
// the view, fed by the commit sweep through a journal and never re-sorted
// on the steady path. The bound runs in three steps, each only when the one
// before cannot tell. A clear-pass against the view answers an arrival the
// queue has room for without reading the queue, and decides an arrival on
// an empty queue outright (the view is then the committed state). Then a
// certificate in O(1) of the queue: the check at D = max(arrival's
// deadline, latest waiting deadline), where all of the queue and the
// arrival are due, on a summary of the queue (Σσ, that latest deadline,
// the earliest first start) that every change to the queue invalidates; it
// is the exact form's last check under EDF, its only one under FIFO when
// nothing waiting is due later, and fires only by a margin of 1e-9 of the
// demand, far above the rounding by which its sum differs from the exact
// one. Last the exact form, one pass over the queue. It is gated like the
// ñ_min
// fast-reject (the partitioner is an rt.FastRejecter, which declares its
// plans physical), abstains on NaN/±Inf intermediates and on user-split's
// hard error (a request for more nodes than are live), and is counted in
// Stats.DemandRejects and rtdls_admission_demand_rejects_total per shard;
// TestQueuedCounts holds such a reject behind 128 waiting tasks to 0 Plan
// calls and 1 allocation, the test's own task (BenchmarkSubmitQueued's
// mix=saturated).
//
// What is planned afresh is planned by one node search shared by all five
// partitioners (rt.PlanContext.PlanMinNodes and the search under it): for
// n = ñ_min(t), ñ_min(t)+1, … the partitioner's rt.Estimator evaluates the
// n earliest-available nodes. When the earliest node frees at r_1 past the
// start floor, dlt-iit and opr-mn on a homogeneous cluster start instead
// at ñ_min(A + D − r_1), if that is more, because every smaller n fails:
// no single-round dispatch on nodes free from r_1 on ends before
// r_1 + E(σ,n), the optimum of n nodes that start together (Eq. 8);
// IIT-DLT's r_n + Ê is at least its dispatch (Theorem 4); and OPR's
// r_n + E(σ,n) is at least r_1 + E(σ,n). The bound's slack is widened by
// the admission ε and by 10⁻⁹/(1 − β), so rounding cannot skip a candidate
// the floor start would admit, and the plans are the same bit for bit.
// Multi-round installments can finish before r_1 + E(σ,n), so dlt-mr keeps
// the floor start. Each candidate is evaluated in one reusable
// rt.Candidate — clamped start times, the heterogeneous model rebuilt in
// place (core.Model.Reset), the dispatch timeline simulated in place
// (dlt.SimulateDispatchInto) — that the scheduler owns, and only the
// first candidate that meets the deadline becomes a Plan. A candidate allocates
// nothing, and a fresh plan nothing of its own, however many candidates the
// search ran: plans are pooled in the Candidate. The scheduler gives back
// every plan its schedule drops — the fresh plans of a rejected test, a
// plan that misses its deadline, the tail an accepted test replaced, and
// the plans CommitDue returned, at its next call — and the next search
// takes the last one back, reusing its node ids and its Starts | Release |
// Alphas block when they hold the node count. Only when the pool is empty
// or a spare is too small is a plan cut from chunks of about 4 KB in a
// bump arena. So a plan handed out (to an rt.Observer, or by Admit or
// CommitDue) is valid only until the scheduler's next call.
// The same count test holds an arrival into the middle of 128 waiting
// tasks, and one behind them, to no more heap bytes than its task, and so
// does TestRejectReturnsFreshPlans for a reject decided after fresh plans.
// Task records are pooled the same way, per shard and under its lock: the
// service decides each task on a record from its free list, cut from an
// arena (rt.Carve) only when the list is empty, and gives it back where the
// task dies — right after the decision when it is not admitted (a gate or
// scheduler reject, or a hard error), after the commit loop has announced
// and accounted it, or once a fleet change has displaced it and copied it
// out for the pool. So a *Task handed to an rt.Observer, and a Plan's Task,
// are valid only while the callback runs; events and Decisions are copies.
// A rejected submit allocates nothing at all, and an accepted one that
// commits only its Decision's Nodes and Starts | Alphas block, cut from the
// service's arenas (TestSubmitBytes); a reject tested on every shard of a
// spillover pool leaves nothing behind either. A caller that reuses one
// Decision (SubmitTo) does not pay even those: an accept is copied into the
// Decision's own slices when they hold the plan, and a reject keeps them,
// truncated. workload.Generator.Next carves each task it returns, and
// NextInto writes into a record the caller reuses. Simulate's loop reuses
// one task and one Decision for every arrival, so an arrival costs it no
// heap bytes (TestRunMarginalBytes). A retained Decision keeps its chunk of
// at most 4 KB reachable, and one that is reused overwrites what it held.
//
// Build and test with the standard toolchain — go build ./... and
// go test ./... — or via the Makefile (make ci mirrors CI's build-and-test
// and fuzz-smoke jobs: build, gofmt gate, vet, race tests, benchmark
// compile check and a fuzz smoke pass; make bench-gate is its bench job,
// the timing-ratio contracts run in-process under the benchgate build tag;
// make wire-smoke is its wire-smoke job).
//
// The experiment harness that regenerates every figure of the paper, plus
// the xHET* heterogeneity panels, lives in cmd/figures; the panels are
// indexed in internal/experiments/panels.go.
package rtdls
