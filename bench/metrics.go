package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds (bench_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the median
}

// endToEndMetrics are what a caller of the system sees, measured with
// tracing off (see runPlain for how a run's replays become one value). The
// bounds are what this shared 2-core box can hold, not what one would like:
// README.md gives the measured spreads behind them.
var endToEndMetrics = []metricDef{
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"decision_p50_us", "us", "lower", 0.25},
	{"decision_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_decision", "us", "lower", 0.25},
	{"allocs_per_decision", "count", "lower", 0.08},
	{"alloc_bytes_per_decision", "B", "lower", 0.10},
	{"accept_share", "ratio", "higher", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from the traced pass (spans and counts taken by the
// decorators, plus the engines' public counters) and from the ladder of
// single-rung micro measurements. A metric that does not apply to a
// workload reads 0 there.
var perLayerMetrics = []metricDef{
	{name: "rt.plans_per_decision", unit: "count", better: "lower"},
	{name: "rt.plan_us_per_call", unit: "us", better: "lower"},
	{name: "rt.plan_us_per_decision", unit: "us", better: "lower"},
	{name: "rt.plan_infeasible_share", unit: "ratio", better: "lower"},
	{name: "rt.fastreject_per_decision", unit: "count", better: "lower"},
	{name: "rt.fastreject_us_per_decision", unit: "us", better: "lower"},
	{name: "rt.fastreject_hit_share", unit: "ratio", better: "higher"},
	{name: "rt.nodes_per_plan_mean", unit: "count", better: "lower"},
	{name: "rt.queue_depth_mean", unit: "count", better: "lower"},
	{name: "rt.queue_depth_max", unit: "count", better: "lower"},
	{name: "rt.scheduler_submit_us", unit: "us", better: "lower"},
	{name: "rt.plan_iitdlt_us", unit: "us", better: "lower"},
	{name: "dlt.exec_time_ns", unit: "ns", better: "lower"},
	{name: "dlt.min_nodes_bound_ns", unit: "ns", better: "lower"},
	{name: "core.model_new_ns", unit: "ns", better: "lower"},
	{name: "core.hetero_model_new_ns", unit: "ns", better: "lower"},
	{name: "engine.submit_us_per_decision", unit: "us", better: "lower"},
	{name: "engine.self_us_per_decision", unit: "us", better: "lower"},
	{name: "service.spec_share", unit: "ratio", better: "higher"},
	{name: "service.conflict_share", unit: "ratio", better: "lower"},
	{name: "service.commits_per_decision", unit: "count", better: "higher"},
	{name: "service.busy_reject_share", unit: "ratio", better: "lower"},
	{name: "service.submit_us", unit: "us", better: "lower"},
	{name: "service.self_us", unit: "us", better: "lower"},
	{name: "pool.shard_tests_per_decision", unit: "count", better: "lower"},
	{name: "pool.spillover_share", unit: "ratio", better: "lower"},
	{name: "pool.place_us_per_decision", unit: "us", better: "lower"},
	{name: "pool.k1_submit_us", unit: "us", better: "lower"},
	{name: "pool.k1_overhead_us", unit: "us", better: "lower"},
	{name: "server.handle_us_per_req", unit: "us", better: "lower"},
	{name: "server.self_us_per_req", unit: "us", better: "lower"},
	{name: "server.req_bytes_per_req", unit: "B", better: "lower"},
	{name: "server.resp_bytes_per_req", unit: "B", better: "lower"},
	{name: "server.http_5xx", unit: "count", better: "lower"},
	{name: "server.inproc_handle_us", unit: "us", better: "lower"},
	{name: "server.inproc_allocs_per_req", unit: "count", better: "lower"},
	{name: "wire.self_us_per_req", unit: "us", better: "lower"},
	{name: "wire.transport_errors", unit: "count", better: "lower"},
	{name: "wire.conns", unit: "count", better: "lower"},
	{name: "driver.tasks_per_s.dlt-iit", unit: "1/s", better: "higher"},
	{name: "driver.tasks_per_s.opr-mn", unit: "1/s", better: "higher"},
	{name: "driver.tasks_per_s.opr-an", unit: "1/s", better: "higher"},
	{name: "driver.tasks_per_s.user-split", unit: "1/s", better: "higher"},
	{name: "driver.tasks_per_s.dlt-mr", unit: "1/s", better: "higher"},
	{name: "driver.reject_ratio.dlt-iit", unit: "ratio", better: "lower"},
	{name: "driver.reject_ratio.opr-mn", unit: "ratio", better: "lower"},
	{name: "driver.reject_ratio.opr-an", unit: "ratio", better: "lower"},
	{name: "driver.reject_ratio.user-split", unit: "ratio", better: "lower"},
	{name: "driver.reject_ratio.dlt-mr", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "bench.spans", unit: "count", better: "lower"},
	{name: "bench.generator_s", unit: "s", better: "lower"},
}

// ratio is a/b, 0 when the metric does not apply (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// perLayer derives the traced pass's per-layer values from the totals over
// every traced replay. Span-derived figures divide by the timed decisions;
// figures from the engines' own counters cover the warm-up too and divide
// by the arrivals those counters saw.
func (tot *totals) perLayer(sp spec, overhead float64) map[string]float64 {
	n := float64(tot.attempted)
	arr := float64(tot.arrivals)
	plan, fast, sub := tot.by[spanPlan], tot.by[spanFastReject], tot.by[spanSubmit]
	handle, wire := tot.by[spanHandle], tot.by[spanWire]
	m := map[string]float64{
		"rt.plans_per_decision":         ratio(float64(plan.count), n),
		"rt.plan_us_per_call":           ratio(us(plan.total), float64(plan.count)),
		"rt.plan_us_per_decision":       ratio(us(plan.total), n),
		"rt.plan_infeasible_share":      ratio(float64(tot.planErrs), float64(plan.count)),
		"rt.fastreject_per_decision":    ratio(float64(fast.count), n),
		"rt.fastreject_us_per_decision": ratio(us(fast.total), n),
		"rt.fastreject_hit_share":       ratio(float64(tot.fastHits), float64(fast.count)),
		"rt.nodes_per_plan_mean":        ratio(float64(tot.planNodes), float64(plan.count)-float64(tot.planErrs)),
		"rt.queue_depth_mean":           ratio(float64(tot.queueSum), float64(tot.queueSamples*max(sp.shards, 1))),
		"rt.queue_depth_max":            float64(tot.queueMax),
		"engine.submit_us_per_decision": ratio(us(sub.total), n),
		"engine.self_us_per_decision":   ratio(us(sub.self), n),
		"service.spec_share":            ratio(float64(tot.speculative), float64(tot.shardArrivals)),
		"service.conflict_share":        ratio(float64(tot.conflicts), float64(tot.speculative+tot.conflicts)),
		"service.commits_per_decision":  ratio(float64(tot.commits), arr),
		"service.busy_reject_share":     ratio(float64(tot.busy), n),
		"pool.shard_tests_per_decision": ratio(float64(tot.shardArrivals), arr),
		"pool.spillover_share":          ratio(float64(tot.spilled), arr),
		"pool.place_us_per_decision":    ratio(us(tot.by[spanPlace].total), n),
		"server.handle_us_per_req":      ratio(us(handle.total), float64(handle.count)),
		"server.self_us_per_req":        ratio(us(handle.self), float64(handle.count)),
		"server.req_bytes_per_req":      ratio(float64(tot.reqBytes), float64(handle.count)),
		"server.resp_bytes_per_req":     ratio(float64(tot.respBytes), float64(handle.count)),
		"server.http_5xx":               float64(tot.http5xx),
		"wire.self_us_per_req":          ratio(us(wire.self), float64(wire.count)),
		"wire.transport_errors":         float64(tot.transportErrs),
		"wire.conns":                    float64(tot.conns),
		"bench.trace_overhead_share":    overhead,
		"bench.spans":                   float64(tot.spans),
		"bench.generator_s":             tot.gen.Seconds(),
	}
	for a, alg := range simAlgorithms {
		st := tot.sim[a]
		m["driver.tasks_per_s."+alg] = ratio(float64(st.arrivals), st.elapsed.Seconds())
		m["driver.reject_ratio."+alg] = ratio(float64(st.rejected), float64(st.arrivals))
	}
	return m
}

// regime checks that a workload's stream still produces the traffic shape
// its "why" claims; a miss means the stream parameters in workloads.go need
// retuning, never the code under test.
type regime struct {
	claim string
	ok    bool
}

func (tot *totals) regimes(sp spec, m map[string]float64) []regime {
	var rs []regime
	add := func(ok bool, claim string) { rs = append(rs, regime{claim, ok}) }
	self := func(n int) float64 { return float64(tot.by[n].self) }
	switch sp.name {
	case "shallow", "big-fleet":
		add(m["rt.queue_depth_mean"] <= 3, "rt.queue_depth_mean <= 3")
	case "deep-edf":
		add(m["rt.queue_depth_mean"] >= 30, "rt.queue_depth_mean >= 30")
		add(self(spanPlan) >= 0.5*float64(tot.by[spanSubmit].total), "rt.plan >= half of engine.submit time")
	case "overload-spill":
		add(m["pool.shard_tests_per_decision"] >= 3, "pool.shard_tests_per_decision >= 3")
	case "wire-shallow":
		add(self(spanWire)+self(spanHandle) >= 0.8*float64(tot.rootTotal), "server + wire self >= 80% of the request")
	}
	return rs
}
