package load

import (
	"math"
	"strings"
	"testing"

	"rtdls/internal/metrics"
)

func TestParseMetricsBasics(t *testing.T) {
	sc := ParseMetrics(strings.Join([]string{
		"# HELP x help text",
		"# TYPE x counter",
		`x{shard="0"} 3`,
		`x{shard="1"} 4`,
		"plain 7",
		`escaped{path="a\\b\"c\nd"} 1`,
		"with_ts 9 1712345678",
		"garbage line that is not a sample",
		"",
	}, "\n"))

	if v, ok := sc.Value("x", map[string]string{"shard": "1"}); !ok || v != 4 {
		t.Fatalf("Value(x, shard=1) = %v, %v", v, ok)
	}
	if got := sc.Sum("x", nil); got != 7 {
		t.Fatalf("Sum(x) = %g, want 7", got)
	}
	if v, ok := sc.Value("plain", nil); !ok || v != 7 {
		t.Fatalf("Value(plain) = %v, %v", v, ok)
	}
	if v, ok := sc.Value("with_ts", nil); !ok || v != 9 {
		t.Fatalf("timestamped sample = %v, %v", v, ok)
	}
	want := "a\\b\"c\nd"
	if v, ok := sc.Value("escaped", map[string]string{"path": want}); !ok || v != 1 {
		t.Fatalf("escaped label value not unescaped (%v, %v)", v, ok)
	}
	if got := sc.LabelValues("x", "shard"); len(got) != 2 || got[0] != "0" || got[1] != "1" {
		t.Fatalf("LabelValues = %v", got)
	}
}

// TestMetricsDeltaRoundTrip drives the real registry: observe, render,
// parse, observe more, render again, and check the delta summary — the
// exact pipeline dlload runs against a live server.
func TestMetricsDeltaRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("rtdls_admission_stage_seconds",
		"Admission stage latency.", metrics.Labels{"stage": "plan"})
	submits := reg.Counter("rtdls_submits_total", "h", metrics.Labels{"shard": "0"})
	accepts := reg.Counter("rtdls_accepts_total", "h", metrics.Labels{"shard": "0"})
	rejects := reg.Counter("rtdls_rejects_total", "h",
		metrics.Labels{"shard": "0", "reason": "infeasible"})
	commits := reg.Counter("rtdls_commits_total", "h", metrics.Labels{"shard": "0"})
	depthMax := reg.Gauge("rtdls_queue_depth_max", "h", metrics.Labels{"shard": "0"})
	drops := reg.Counter("rtdls_events_dropped_total", "h", nil)
	computed := reg.Counter("rtdls_admission_plans_computed_total", "h", metrics.Labels{"shard": "0"})
	reused := reg.Counter("rtdls_admission_plans_reused_total", "h", metrics.Labels{"shard": "0"})
	demand := reg.Counter("rtdls_admission_demand_rejects_total", "h", metrics.Labels{"shard": "0"})

	render := func() *Scrape {
		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return ParseMetrics(b.String())
	}

	// Warm-up traffic that the delta must subtract out.
	h.Observe(0.010)
	submits.Add(10)
	accepts.Add(10)
	commits.Add(10)
	computed.Add(12)
	reused.Add(30)
	demand.Add(3)
	before := render()

	for i := 0; i < 99; i++ {
		h.Observe(0.001)
	}
	h.Observe(1.0)
	submits.Add(40)
	accepts.Add(30)
	rejects.Add(10)
	commits.Add(25)
	depthMax.SetMax(7)
	drops.Add(2)
	computed.Add(55)
	reused.Add(400)
	demand.Add(8)
	after := render()

	sm := MetricsDelta(before, after)
	if len(sm.Stages) != 1 || sm.Stages[0].Stage != "plan" {
		t.Fatalf("stages = %+v", sm.Stages)
	}
	st := sm.Stages[0]
	if st.Count != 100 {
		t.Fatalf("stage count = %d, want 100 (warm-up subtracted)", st.Count)
	}
	// p50 of 99×1ms + 1×1s sits in the ~1ms bucket; p99 may land on the 1s
	// sample's bucket or below, p50 must not exceed one growth step above
	// 1ms.
	if st.P50Us < 1000*0.95 || st.P50Us > 1000*1.06 {
		t.Fatalf("p50 = %g µs, want ≈1000", st.P50Us)
	}
	if st.P99Us < st.P50Us {
		t.Fatalf("p99 %g < p50 %g", st.P99Us, st.P50Us)
	}
	wantMean := (99*0.001 + 1.0) / 100 * 1e6
	if math.Abs(st.MeanUs-wantMean) > wantMean*0.01 {
		t.Fatalf("mean = %g µs, want ≈%g", st.MeanUs, wantMean)
	}

	if len(sm.Shards) != 1 {
		t.Fatalf("shards = %+v", sm.Shards)
	}
	sh := sm.Shards[0]
	if sh.Submits != 40 || sh.Accepts != 30 || sh.Rejects != 10 || sh.Commits != 25 {
		t.Fatalf("shard counters = %+v", sh)
	}
	if sh.QueueDepthMax != 7 || sm.QueueDepthMax != 7 {
		t.Fatalf("queue depth max = %g / %g, want 7", sh.QueueDepthMax, sm.QueueDepthMax)
	}
	if sm.EventsDropped != 2 {
		t.Fatalf("events dropped = %g, want 2", sm.EventsDropped)
	}
	if sh.PlansComputed != 55 || sh.PlansReused != 400 || sm.PlansComputed != 55 || sm.PlansReused != 400 {
		t.Fatalf("plan counters = shard %d/%d, total %d/%d, want 55/400", sh.PlansComputed, sh.PlansReused, sm.PlansComputed, sm.PlansReused)
	}
	if sh.DemandRejects != 8 || sm.DemandRejects != 8 {
		t.Fatalf("demand rejects = shard %d, total %d, want 8", sh.DemandRejects, sm.DemandRejects)
	}
}

func TestHistogramDeltaSparseBucketUnion(t *testing.T) {
	// The before scrape rendered fewer buckets than the after scrape; the
	// delta must still line up by evaluating both as step functions.
	before := ParseMetrics(strings.Join([]string{
		`h_bucket{le="0.001"} 5`,
		`h_bucket{le="+Inf"} 5`,
		`h_sum 0.005`,
		`h_count 5`,
	}, "\n"))
	after := ParseMetrics(strings.Join([]string{
		`h_bucket{le="0.001"} 5`,
		`h_bucket{le="0.5"} 8`,
		`h_bucket{le="+Inf"} 8`,
		`h_sum 1.505`,
		`h_count 8`,
	}, "\n"))
	d := histogramDelta(before, after, "h", nil)
	if d.count != 3 {
		t.Fatalf("delta count = %g, want 3", d.count)
	}
	// All three new samples are in (0.001, 0.5]: every quantile reports 0.5.
	if got := d.quantile(0.50); got != 0.5 {
		t.Fatalf("p50 = %g, want 0.5", got)
	}
	if got := d.quantile(0.99); got != 0.5 {
		t.Fatalf("p99 = %g, want 0.5", got)
	}
}
