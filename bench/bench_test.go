package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"rtdls/internal/pool"
	"rtdls/internal/rt"
)

// testScale shrinks every stream to a couple of thousand tasks.
const testScale = 0.02

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %g, want 7", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, sp := range specs {
		if sp.sim {
			continue // rtdls.Simulate draws its own stream from the seed
		}
		a, err := genStream(sp, streamSeed(1, 0), 500)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genStream(sp, streamSeed(1, 0), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		for _, other := range []uint64{streamSeed(1, 1), streamSeed(2, 0)} {
			if c, _ := genStream(sp, other, 500); reflect.DeepEqual(a, c) {
				t.Errorf("%s: seeds %d and %d gave the same stream", sp.name, streamSeed(1, 0), other)
			}
		}
	}
	over, _ := specByName("overload-spill")
	wire, _ := specByName("wire-overload")
	a, _ := genStream(over, streamSeed(3, 1), 500)
	b, _ := genStream(wire, streamSeed(3, 1), 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("wire-overload does not replay the overload-spill stream")
	}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(nil)
	if _, ok := tracePartitioner(rt.IITDLT{}, tr).(rt.FastRejecter); !ok {
		t.Error("a wrapped IITDLT lost rt.FastRejecter")
	}
	if _, ok := tracePartitioner(plainPartitioner{}, tr).(rt.FastRejecter); ok {
		t.Error("a wrapped partitioner gained rt.FastRejecter")
	}
	var rr pool.Placement = tracedPlacement{pool.RoundRobin{}, tr}
	if rr.(pool.LoadAware).NeedsLoads() {
		t.Error("a wrapped RoundRobin reports NeedsLoads, the bare one does not")
	}
	var sp pool.Placement = tracedPlacement{pool.Spillover{}, tr}
	if !sp.(pool.LoadAware).NeedsLoads() {
		t.Error("a wrapped Spillover must need loads, as the pool assumes of the bare one")
	}
}

// plainPartitioner is a partitioner without the optional interfaces.
type plainPartitioner struct{}

func (plainPartitioner) Name() string { return "plain" }
func (plainPartitioner) Plan(*rt.PlanContext, *rt.Task) (*rt.Plan, error) {
	return nil, rt.ErrInfeasible
}

// TestTracingChangesNoDecision replays every workload bare and decorated:
// both must pass the correctness gate and yield the same decision digest,
// and the spans must account for every request.
func TestTracingChangesNoDecision(t *testing.T) {
	for _, sp := range specs {
		sp.streams = 1
		rc := replayConfig{sp: sp, seed: streamSeed(5, 0), scale: testScale, conns: 1}
		var bare, traced totals
		d0, problems, err := replay(rc, &bare)
		if err != nil || len(problems) > 0 {
			t.Fatalf("%s bare: %v %v", sp.name, err, problems)
		}
		var buf, sample []span
		rc.traced, rc.buf, rc.sample = true, &buf, &sample
		d1, problems, err := replay(rc, &traced)
		if err != nil || len(problems) > 0 {
			t.Fatalf("%s traced: %v %v", sp.name, err, problems)
		}
		if d0 != d1 {
			t.Errorf("%s: digest %016x bare, %016x traced", sp.name, d0, d1)
		}
		if bare.failed != 0 || traced.failed != 0 || bare.attempted != traced.attempted || bare.accepted != traced.accepted {
			t.Errorf("%s: bare %d/%d/%d, traced %d/%d/%d (attempted/accepted/failed)", sp.name,
				bare.attempted, bare.accepted, bare.failed, traced.attempted, traced.accepted, traced.failed)
		}
		checkSpanAccount(t, sp, sample, &traced)
	}
}

func checkSpanAccount(t *testing.T, sp spec, spans []span, tot *totals) {
	t.Helper()
	by, rootTotal, err := accountSpans(spans)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	var self int64
	for _, lt := range by {
		self += lt.self
	}
	if self != rootTotal || rootTotal <= 0 {
		t.Errorf("%s: self times sum to %d ns, root spans to %d ns", sp.name, self, rootTotal)
	}
	root := spanSubmit
	switch {
	case sp.wire:
		root = spanWire
	case sp.sim:
		root = spanSimulate
	}
	want := tot.attempted
	if sp.sim {
		want = len(simAlgorithms)
	}
	if by[root].count != want {
		t.Errorf("%s: %d %s spans for %d requests", sp.name, by[root].count, spanNames[root], want)
	}
	for i, s := range spans {
		if (s.parent < 0) != (int(s.name) == root) {
			t.Fatalf("%s: span %d (%s) has parent %d", sp.name, i, spanNames[s.name], s.parent)
		}
	}
	if n := len(sampleSpans(spans)); n == 0 || n > traceSampleSpans {
		t.Errorf("%s: trace sample holds %d spans", sp.name, n)
	}
}

func TestAccountSpansRejectsBrokenTraces(t *testing.T) {
	ok := []span{{name: spanSubmit, parent: -1, start: 0, end: 100}, {name: spanPlan, parent: 0, start: 10, end: 40}, {name: spanPlan, parent: 0, start: 50, end: 90}}
	by, root, err := accountSpans(ok)
	if err != nil || root != 100 || by[spanSubmit].self != 30 || by[spanPlan].self != 70 || by[spanPlan].count != 2 {
		t.Fatalf("account = %+v, root %d, err %v", by, root, err)
	}
	for name, bad := range map[string][]span{
		"open span":      {{name: spanSubmit, parent: -1, start: 5, end: 0}},
		"escapes parent": {{name: spanSubmit, parent: -1, start: 0, end: 10}, {name: spanPlan, parent: 0, start: 5, end: 11}},
		"later parent":   {{name: spanPlan, parent: 1, start: 0, end: 1}, {name: spanSubmit, parent: -1, start: 0, end: 10}},
		"overlap":        {{name: spanSubmit, parent: -1, start: 0, end: 10}, {name: spanPlan, parent: 0, start: 0, end: 8}, {name: spanPlan, parent: 0, start: 2, end: 10}},
	} {
		if _, _, err := accountSpans(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and workload
// tables in this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q %q, spec has %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bm.EndToEnd) != len(endToEndMetrics) || len(bm.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the package %d+%d",
			len(bm.EndToEnd), len(bm.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range bm.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEndMetrics[i] {
			t.Errorf("end_to_end %d: %+v, package has %+v", i, got, endToEndMetrics[i])
		}
	}
	for i, m := range bm.PerLayer {
		if got := (metricDef{name: m.Name, unit: m.Unit, better: m.Better}); got != perLayerMetrics[i] {
			t.Errorf("per_layer %d: %+v, package has %+v", i, got, perLayerMetrics[i])
		}
	}
}

// TestPassesReportEveryMetric runs both passes of one in-process workload
// end to end at a small scale.
func TestPassesReportEveryMetric(t *testing.T) {
	sp, _ := specByName("overload-spill")
	o := options{seed: 2, seconds: 0.01, scale: testScale}
	plain, err := runPlain(sp, o)
	if err != nil || len(plain.problems) > 0 || plain.failed != 0 {
		t.Fatalf("plain: %v %v failed=%d", err, plain.problems, plain.failed)
	}
	for _, d := range endToEndMetrics {
		if v, ok := plain.metrics[d.name]; !ok || !(v > 0) {
			t.Errorf("plain pass: %s = %v", d.name, v)
		}
	}
	traced, err := runTraced(sp, o)
	if err != nil || len(traced.problems) > 0 || traced.failed != 0 {
		t.Fatalf("traced: %v %v failed=%d", err, traced.problems, traced.failed)
	}
	for _, d := range perLayerMetrics {
		if _, ok := traced.metrics[d.name]; !ok {
			t.Errorf("traced pass: %s missing", d.name)
		}
	}
	if plain.digest != traced.digest {
		t.Errorf("digest %016x plain, %016x traced", plain.digest, traced.digest)
	}
	if traced.metrics["pool.shard_tests_per_decision"] <= 1 || traced.metrics["rt.plans_per_decision"] <= 1 {
		t.Errorf("overload-spill shows no spillover or replanning: %v", traced.metrics)
	}
}
