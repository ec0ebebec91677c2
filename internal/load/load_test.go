package load

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
	"rtdls/internal/server"
	"rtdls/internal/service"
)

// newWireServer boots a full dlserve handler over a fresh engine.
func newWireServer(t *testing.T) (*httptest.Server, *server.Server) {
	t.Helper()
	cl, err := cluster.New(16, dlt.Params{Cms: 1, Cps: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := service.New(service.Config{
		Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{},
		Clock: service.NewWallClock(100000),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng, Scale: 100000, Version: "load-test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestRunClosedLoop(t *testing.T) {
	ts, _ := newWireServer(t)
	rep, err := Run(context.Background(), Options{
		URL: ts.URL, Mode: "closed", Workers: 8, N: 200,
		Sigma: 200, Deadline: 1e6, Seed: 1,
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 200 {
		t.Fatalf("requests = %d, want 200", rep.Requests)
	}
	if rep.HTTP5xx != 0 || rep.TransportErrors != 0 {
		t.Fatalf("errors: %+v", rep)
	}
	if rep.Accepted == 0 {
		t.Fatalf("no task accepted: %+v", rep)
	}
	if rep.Latency.Samples != 200 || rep.Latency.P99Ms <= 0 {
		t.Fatalf("latency = %+v", rep.Latency)
	}
	checkLatencyOrder(t, rep.Latency)
	if rep.ServerStats == nil {
		t.Fatal("missing server stats snapshot")
	}
	var st map[string]any
	if err := json.Unmarshal(rep.ServerStats, &st); err != nil {
		t.Fatal(err)
	}
	if got := st["Arrivals"]; got != float64(200) {
		t.Fatalf("server arrivals = %v", got)
	}

	out := filepath.Join(t.TempDir(), "BENCH_wire.json")
	if err := rep.WriteJSON(out); err != nil {
		t.Fatal(err)
	}
}

func TestRunOpenLoop(t *testing.T) {
	ts, _ := newWireServer(t)
	rep, err := Run(context.Background(), Options{
		URL: ts.URL, Mode: "open", N: 100, Rate: 2000, Burst: 10,
		Sigma: 200, Deadline: 1e6, Seed: 7,
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 100 || rep.HTTP5xx != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Latency.Samples != 100 {
		t.Fatalf("latency samples = %d", rep.Latency.Samples)
	}
	checkLatencyOrder(t, rep.Latency)
}

// checkLatencyOrder asserts P50 <= P90 <= P99 <= P999 <= Max and
// Mean <= Max: bucket upper bounds overshoot the samples they cover, so a
// quantile not capped at the exact maximum breaks the last link.
func checkLatencyOrder(t *testing.T, l LatencyReport) {
	t.Helper()
	chain := []float64{l.P50Ms, l.P90Ms, l.P99Ms, l.P999Ms, l.MaxMs}
	for i := 1; i < len(chain); i++ {
		if chain[i-1] > chain[i] {
			t.Fatalf("latency quantiles out of order (p50, p90, p99, p999, max) = %v", chain)
		}
	}
	if l.MeanMs > l.MaxMs {
		t.Fatalf("mean %g ms above max %g ms", l.MeanMs, l.MaxMs)
	}
}

// TestRunObservesRetryAfter saturates a MaxQueue=1 engine so busy
// rejections occur, and asserts the harness sees their Retry-After hints.
func TestRunObservesRetryAfter(t *testing.T) {
	cl, err := cluster.New(4, dlt.Params{Cms: 1, Cps: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := service.New(service.Config{
		Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{},
		Clock: service.NewManualClock(0), MaxQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng, Scale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The clock never advances, so accepted plans stay queued: after the
	// first couple of admissions everything else bounces busy.
	rep, err := Run(context.Background(), Options{
		URL: ts.URL, Mode: "closed", Workers: 4, N: 50,
		Sigma: 200, Deadline: 1e6, Seed: 3,
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedBusy == 0 {
		t.Fatalf("expected busy rejections: %+v", rep)
	}
	if !rep.RetryAfter.Compliant || rep.RetryAfter.Observed != rep.RejectedBusy {
		t.Fatalf("retry-after = %+v (busy=%d)", rep.RetryAfter, rep.RejectedBusy)
	}
	if rep.RetryAfter.MinSeconds < 1 {
		t.Fatalf("retry-after min = %v", rep.RetryAfter.MinSeconds)
	}
}

func TestArrivalSchedule(t *testing.T) {
	offs := arrivalSchedule(1000, 500, 1, 42)
	if len(offs) != 1000 {
		t.Fatalf("len = %d", len(offs))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatalf("schedule not monotone at %d", i)
		}
	}
	// Mean rate within 20% of nominal over 1000 draws.
	rate := float64(len(offs)) / offs[len(offs)-1]
	if rate < 400 || rate > 600 {
		t.Fatalf("empirical rate = %v, want ~500", rate)
	}
	// Bursty schedule: same count, grouped offsets.
	burst := arrivalSchedule(100, 500, 10, 42)
	if len(burst) != 100 {
		t.Fatalf("burst len = %d", len(burst))
	}
	if burst[0] != burst[9] {
		t.Fatalf("first burst not grouped: %v vs %v", burst[0], burst[9])
	}
	if burst[9] == burst[10] {
		t.Fatal("burst boundary missing gap")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Fatal("empty URL accepted")
	}
	if _, err := Run(context.Background(), Options{URL: "http://x", Mode: "weird", N: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Run(context.Background(), Options{URL: "http://x", Mode: "open", N: 10}); err == nil {
		t.Fatal("open mode without rate accepted")
	}
}

// TestSubmitBodyBytes pins the body dlload sends for one submission: the
// server's own TaskRequest with only id, sigma and deadline set marshals
// to exactly the three-field object {"id":…,"sigma":…,"deadline":…} for
// every id ≥ 1, byte for byte, at the defaults, across the sigma spread
// and at the float edges.
func TestSubmitBodyBytes(t *testing.T) {
	type threeFields struct {
		ID       int64   `json:"id"`
		Sigma    float64 `json:"sigma"`
		Deadline float64 `json:"deadline"`
	}
	rng := rand.New(rand.NewSource(9))
	cases := []threeFields{
		{1, 200, 20000},
		{math.MaxInt64, math.SmallestNonzeroFloat64, math.MaxFloat64},
		{42, 1e-7, 1e21},
	}
	for i := 0; i < 1000; i++ {
		cases = append(cases, threeFields{1 + rng.Int63n(1<<40), 50 + rng.Float64()*750, rng.ExpFloat64() * 1e4})
	}
	for _, c := range cases {
		got, err := json.Marshal(server.TaskRequest{ID: c.ID, Sigma: c.Sigma, Deadline: c.Deadline})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("body %s, want %s", got, want)
		}
	}
}
