package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtdls"
	"rtdls/internal/errs"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
	"rtdls/internal/service"
	"rtdls/internal/verify"
)

// totals accumulates the measurements of one or more replays: one cycle's
// worth for an end-to-end value, all traced replays for the per-layer ones.
type totals struct {
	setup, gen, elapsed, cpu time.Duration
	mallocs, allocBytes      uint64
	latUS                    []float64

	attempted, accepted, busy, failed int

	// Counter deltas read from the engines after each replay (they cover
	// the warm-up too, so ratios divide by the matching arrivals).
	arrivals, shardArrivals, commits int
	speculative, conflicts, spilled  int
	queueSum, queueSamples, queueMax int
	conns, transportErrs             int
	by                               [numSpanNames]layerTotals
	rootTotal                        int64
	spans                            int
	planErrs, planNodes, fastHits    int64
	reqBytes, respBytes, http5xx     int64
	sim                              [len(simAlgorithms)]simTotals
}

type simTotals struct {
	elapsed            time.Duration
	arrivals, rejected int
}

var simAlgorithms = [...]string{rtdls.AlgDLTIIT, rtdls.AlgOPRMN, rtdls.AlgOPRAN, rtdls.AlgUserSplit, rtdls.AlgDLTMR}

// replayConfig fixes how one sub-stream is replayed.
type replayConfig struct {
	sp     spec
	seed   uint64 // the sub-stream's generator seed
	scale  float64
	conns  int     // concurrent submitters (wire: keep-alive connections)
	traced bool    // decorate every layer and install the verifier
	buf    *[]span // span storage reused across traced replays
	sample *[]span // receives the spans of the replay when non-nil
}

// scaled sizes a task count by -scale, keeping at least a few hundred tasks
// so the highest reported percentile keeps samples beyond it.
func scaled(n int, scale float64) int { return max(int(float64(n)*scale), 200) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs body and adds its wall time, process CPU time and allocation
// counts to tot.
func (tot *totals) measure(body func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	body()
	tot.elapsed += time.Since(start)
	tot.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	tot.mallocs += m1.Mallocs - m0.Mallocs
	tot.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

// digestOutcomes is the FNV-1a decision digest over (task id, accepted,
// shard, reason, node count, Est bits) in stream order.
func digestOutcomes(out []outcome) uint64 {
	h := uint64(fnvOffset)
	for _, o := range out {
		h = fnv1a(h, uint64(o.id))
		acc := uint64(0)
		if o.accepted {
			acc = 1
		}
		h = fnv1a(h, acc<<32|uint64(uint32(o.shard)))
		for i := 0; i < len(o.reason); i++ {
			h = (h ^ uint64(o.reason[i])) * 1099511628211
		}
		h = fnv1a(h, uint64(o.nodes))
		h = fnv1a(h, math.Float64bits(o.est))
	}
	return h
}

// replay runs one sub-stream on a fresh engine, adds its measurements to
// tot and returns the decision digest. A correctness violation is returned
// as problems; the replay's operations then all count as failed.
func replay(rc replayConfig, tot *totals) (digest uint64, problems []string, err error) {
	if rc.sp.sim {
		return replaySim(rc, tot)
	}
	sp := rc.sp
	warm, body := scaled(sp.warm, rc.scale), scaled(sp.body, rc.scale)

	setupStart := time.Now()
	tasks, err := genStream(sp, rc.seed, warm+body)
	if err != nil {
		return 0, nil, err
	}
	gen := time.Since(setupStart)
	var tr *tracer
	if rc.traced {
		tr = newTracer(*rc.buf)
	}
	var reg *metrics.Registry
	if sp.wire {
		reg = metrics.NewRegistry()
	}
	b, err := build(sp, tr, reg)
	if err != nil {
		return 0, nil, err
	}
	submit := engineSubmitter(b.eng)
	var wh *wireHarness
	if sp.wire {
		if wh, err = startWire(b.eng, reg, rc.conns, tr); err != nil {
			return 0, nil, err
		}
		submit = wh.submit
	}

	lat := make([]int64, warm+body)
	out := make([]outcome, warm+body)
	var firstErr atomic.Pointer[error]
	var queueSum, queueSamples, queueMax int
	ctx := context.Background()
	// drive submits tasks[from:to] from conns closed-loop submitters that
	// share one cursor; the virtual clock is moved to each arrival first, so
	// traffic density in simulated time never depends on how fast the code
	// under test decides.
	drive := func(from, to int) {
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for w := 0; w < rc.conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= to {
						return
					}
					t := tasks[i]
					b.clock.Set(t.Arrival)
					if tr != nil {
						tr.startTrace(t.ID)
					}
					t0 := time.Now()
					o, err := submit(ctx, t)
					lat[i] = int64(time.Since(t0))
					if err != nil {
						o = outcome{id: t.ID, failed: true}
						firstErr.CompareAndSwap(nil, &err)
					}
					out[i] = o
					if tr != nil && i%64 == 0 {
						q := b.eng.Stats().QueueLen
						queueSum += q
						queueSamples++
						queueMax = max(queueMax, q)
					}
				}
			}()
		}
		wg.Wait()
	}
	drive(0, warm)
	if tr != nil {
		tr.clear()
		queueSum, queueSamples, queueMax = 0, 0, 0
	}
	runtime.GC()
	tot.setup += time.Since(setupStart)
	tot.gen += gen

	tot.measure(func() { drive(warm, warm+body) })

	// Correctness gate: drain, then the accounting identities.
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if ep := firstErr.Load(); ep != nil {
		bad("submit: %v", *ep)
	}
	if err := b.eng.Drain(); err != nil {
		bad("drain: %v", err)
	}
	st := b.eng.Stats()
	if st.Accepts != st.Commits {
		bad("accepts %d != commits %d", st.Accepts, st.Commits)
	}
	if st.QueueLen != 0 {
		bad("queue length %d after drain", st.QueueLen)
	}
	if st.LateCommits != 0 {
		bad("%d late commits", st.LateCommits)
	}
	if st.Arrivals != st.Accepts+st.Rejects {
		bad("arrivals %d != accepts %d + rejects %d", st.Arrivals, st.Accepts, st.Rejects)
	}
	if st.Arrivals != warm+body {
		bad("engine saw %d arrivals, %d tasks sent", st.Arrivals, warm+body)
	}
	for j, ck := range b.checkers {
		if !ck.OK() {
			bad("verifier, shard %d: %s", j, ck.Report())
		}
	}
	if wh != nil {
		if _, fivexx := wh.srv.Requests(); fivexx != 0 {
			bad("%d responses with a 5xx status", fivexx)
		}
		if err := wh.stop(); err != nil {
			bad("server shutdown: %v", err)
		}
		tot.conns += int(wh.conns.Load())
	}
	if err := b.eng.Close(); err != nil {
		bad("close: %v", err)
	}

	tot.attempted += body
	failed := 0
	for i := warm; i < warm+body; i++ {
		o := out[i]
		switch {
		case o.failed:
			failed++
			continue // a failed operation misses every latency figure
		case o.accepted:
			tot.accepted++
		case o.reason == errs.ReasonBusy:
			tot.busy++
		}
		tot.latUS = append(tot.latUS, float64(lat[i])/1e3)
	}
	tot.arrivals += st.Arrivals
	tot.commits += st.Commits
	tot.speculative += st.Speculative
	tot.conflicts += st.Conflicts
	tot.spilled += b.spillovers()
	for _, ss := range b.shardStats() {
		tot.shardArrivals += ss.Arrivals
	}
	tot.queueSum += queueSum
	tot.queueSamples += queueSamples
	tot.queueMax = max(tot.queueMax, queueMax)
	if tr != nil {
		if err := tot.addSpans(tr, rc); err != nil {
			bad("trace: %v", err)
		}
	}
	tot.transportErrs += failed
	if len(problems) > 0 {
		failed = body
	}
	tot.failed += failed
	return digestOutcomes(out[warm:]), problems, nil
}

// addSpans folds a finished replay's spans and boundary counts into tot and
// hands the span buffer back for reuse.
func (tot *totals) addSpans(tr *tracer, rc replayConfig) error {
	by, root, err := accountSpans(tr.spans)
	for n := range by {
		tot.by[n].count += by[n].count
		tot.by[n].total += by[n].total
		tot.by[n].self += by[n].self
	}
	tot.rootTotal += root
	tot.spans += len(tr.spans)
	tot.planErrs += tr.planErrs.Load()
	tot.planNodes += tr.planNodes.Load()
	tot.fastHits += tr.fastHits.Load()
	tot.reqBytes += tr.reqBytes.Load()
	tot.respBytes += tr.respBytes.Load()
	tot.http5xx += tr.http5xx.Load()
	if rc.sample != nil {
		*rc.sample = append((*rc.sample)[:0], tr.spans...)
	}
	*rc.buf = tr.spans
	return err
}

// gapObserver turns rtdls.Simulate's lifecycle callbacks into per-decision
// figures: the time since the previous decision of the same run is that
// decision's latency (the loop is a batch, so this is the whole cost of
// one decision, event queue included), and the callbacks feed the digest.
type gapObserver struct {
	last   time.Time
	latUS  []float64
	digest uint64
}

func (g *gapObserver) decided(id int64, accepted, nodes int, est float64) {
	now := time.Now()
	g.latUS = append(g.latUS, float64(now.Sub(g.last))/1e3)
	g.last = now
	g.digest = fnv1a(fnv1a(fnv1a(g.digest, uint64(id)), uint64(accepted)<<32|uint64(nodes)), math.Float64bits(est))
}

func (g *gapObserver) OnAccept(_ float64, t *rt.Task, p *rt.Plan) {
	g.decided(t.ID, 1, len(p.Nodes), p.Est)
}
func (g *gapObserver) OnReject(_ float64, t *rt.Task) { g.decided(t.ID, 0, 0, 0) }
func (g *gapObserver) OnCommit(float64, *rt.Plan)     {}

// replaySim is replay for paper-sim: one seeded workload through
// rtdls.Simulate under each of the five algorithms. The warm-up is a short
// untimed simulation per algorithm.
func replaySim(rc replayConfig, tot *totals) (digest uint64, problems []string, err error) {
	sp := rc.sp
	simulate := func(alg string, horizon float64, obs rt.Observer) (*rtdls.Result, error) {
		return rtdls.Simulate(
			rtdls.Workload{SystemLoad: sp.load, AvgSigma: avgSigma, DCRatio: sp.dcRatio, Horizon: horizon, Seed: rc.seed},
			rtdls.WithNodes(sp.nodes), rtdls.WithParams(baseParams),
			rtdls.WithAlgorithm(alg), rtdls.WithObserver(obs))
	}
	setupStart := time.Now()
	for _, alg := range simAlgorithms {
		if _, err := simulate(alg, float64(sp.warm)*rc.scale, nil); err != nil {
			return 0, nil, err
		}
	}
	var tr *tracer
	if rc.traced {
		tr = newTracer(*rc.buf)
	}
	g := &gapObserver{digest: fnvOffset}
	runtime.GC()
	tot.setup += time.Since(setupStart)

	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	attempted := 0
	var simErr error
	tot.measure(func() {
		for a, alg := range simAlgorithms {
			var obs rt.Observer = g
			var ck *verify.Checker
			var id int32
			if tr != nil {
				ck = verify.NewChecker(baseParams, sp.nodes)
				obs = service.CombineObservers(g, ck)
				tr.startTrace(int64(a))
				id = tr.begin(spanSimulate)
			}
			t0 := time.Now()
			g.last = t0
			res, err := simulate(alg, float64(sp.body)*rc.scale, obs)
			d := time.Since(t0)
			if tr != nil {
				tr.end(id)
			}
			if err != nil {
				simErr = err
				return
			}
			attempted += res.Arrivals
			tot.accepted += res.Accepted
			tot.sim[a].elapsed += d
			tot.sim[a].arrivals += res.Arrivals
			tot.sim[a].rejected += res.Rejected
			if res.Committed != res.Accepted || res.LateCommits != 0 {
				bad("%s: committed %d of %d accepted, %d late commits", alg, res.Committed, res.Accepted, res.LateCommits)
			}
			if ck != nil && !ck.OK() {
				bad("verifier, %s: %s", alg, ck.Report())
			}
		}
	})
	if simErr != nil {
		return 0, nil, simErr
	}
	if len(g.latUS) != attempted {
		bad("observer saw %d decisions, results report %d arrivals", len(g.latUS), attempted)
	}
	tot.attempted += attempted
	tot.arrivals += attempted
	tot.latUS = append(tot.latUS, g.latUS...)
	if tr != nil {
		if err := tot.addSpans(tr, rc); err != nil {
			bad("trace: %v", err)
		}
	}
	if len(problems) > 0 {
		tot.failed += attempted
	}
	return g.digest, problems, nil
}

// endToEnd computes one cycle's end-to-end values, keyed by metric name.
func (tot *totals) endToEnd() map[string]float64 {
	n := float64(tot.attempted)
	sort.Float64s(tot.latUS)
	return map[string]float64{
		"decisions_per_s":          n / tot.elapsed.Seconds(),
		"decision_p50_us":          quantile(tot.latUS, 0.50),
		"decision_p99_us":          quantile(tot.latUS, 0.99),
		"cpu_us_per_decision":      float64(tot.cpu) / 1e3 / n,
		"allocs_per_decision":      float64(tot.mallocs) / n,
		"alloc_bytes_per_decision": float64(tot.allocBytes) / n,
		"accept_share":             float64(tot.accepted) / n,
		"setup_s":                  tot.setup.Seconds(),
	}
}
