package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// newObservedServer builds a server with a metrics registry wired through
// the engine, mirroring how dlserve assembles the stack.
func newObservedServer(t *testing.T) (*Server, *service.Service, *metrics.Registry) {
	t.Helper()
	cl, err := cluster.New(16, baseline)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	met := service.NewMetrics(reg)
	eng, err := service.New(service.Config{
		Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{},
		Clock: service.NewManualClock(0), Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Scale: 1000, Version: "test", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return srv, eng, reg
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthzReadiness(t *testing.T) {
	srv, eng, _ := newObservedServer(t)
	h := srv.Handler()

	w := get(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", w.Code)
	}
	if hr := decode[HealthResponse](t, w); hr.Status != "ok" || hr.Draining {
		t.Fatalf("healthz body = %+v", hr)
	}

	// Closing the engine's admission gate directly (no server Drain) must
	// flip readiness: load balancers stop routing before the first 503.
	eng.SetAccepting(false)
	w = get(t, h, "/healthz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with gate closed = %d, want 503", w.Code)
	}
	if hr := decode[HealthResponse](t, w); !hr.Draining || hr.Status != "draining" {
		t.Fatalf("healthz body = %+v", hr)
	}

	// Reopening the gate restores readiness.
	eng.SetAccepting(true)
	if w = get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after reopen = %d, want 200", w.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := newObservedServer(t)
	h := srv.Handler()

	// One accept, one infeasible reject, then scrape.
	postJSON(t, h, "/v1/submit", TaskRequest{ID: 1, Sigma: 200, Deadline: 2800})
	postJSON(t, h, "/v1/submit", TaskRequest{ID: 2, Sigma: 1e6, Deadline: 1})

	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d, want 200", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE rtdls_admission_stage_seconds histogram",
		`rtdls_admission_stage_seconds_count{stage="plan"} 2`,
		`rtdls_submits_total{shard="0"} 2`,
		`rtdls_accepts_total{shard="0"} 1`,
		`rtdls_rejects_total{reason="infeasible",shard="0"} 1`,
		`rtdls_queue_depth_max{shard="0"} 1`,
		"# TYPE rtdls_http_requests_total counter",
		`rtdls_info{version="test"} 1`,
		"rtdls_events_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// The scrape itself shows up in HTTP metrics on the next scrape, under
	// the normalized route label.
	w = get(t, h, "/metrics")
	if !strings.Contains(w.Body.String(), `rtdls_http_requests_total{route="/metrics",status="200"}`) {
		t.Fatalf("scrape not accounted in HTTP metrics:\n%s", w.Body.String())
	}
	// Unknown paths collapse into the "other" route label.
	get(t, h, "/no/such/path")
	w = get(t, h, "/metrics")
	if !strings.Contains(w.Body.String(), `rtdls_http_requests_total{route="other",status="404"}`) {
		t.Fatalf("unknown route not normalized:\n%s", w.Body.String())
	}
}

func TestMetricsDisabledWithoutRegistry(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if w := get(t, srv.Handler(), "/metrics"); w.Code != http.StatusNotFound {
		t.Fatalf("metrics without registry = %d, want 404", w.Code)
	}
}

func TestRequestIDEchoed(t *testing.T) {
	srv, _, _ := newObservedServer(t)
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(RequestIDHeader, "client-supplied-id")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := w.Header().Get(RequestIDHeader); got != "client-supplied-id" {
		t.Fatalf("request id not echoed: %q", got)
	}

	w = get(t, h, "/healthz")
	if got := w.Header().Get(RequestIDHeader); len(got) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", got)
	}
}

func TestSubscriberDropsInStats(t *testing.T) {
	srv, eng, reg := newObservedServer(t)
	h := srv.Handler()

	// A one-slot subscriber tracked exactly as handleEvents tracks it; the
	// channel fills after the first event and the bus drops the rest.
	sub := eng.Subscribe(1)
	defer sub.Cancel()
	id := srv.trackSub(sub)
	defer srv.untrackSub(id)

	for i := 1; i <= 6; i++ {
		postJSON(t, h, "/v1/submit", TaskRequest{ID: int64(i), Sigma: 1e6, Deadline: 1})
	}

	w := get(t, h, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats = %d", w.Code)
	}
	resp := decode[StatsResponse](t, w)
	if len(resp.Subscribers) != 1 {
		t.Fatalf("subscribers = %+v, want one entry", resp.Subscribers)
	}
	if got := resp.Subscribers[0].Dropped; got != 5 {
		t.Fatalf("subscriber dropped = %d, want 5 (6 events, buffer 1)", got)
	}

	// The same drops surface in the exposition.
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rtdls_events_dropped_total 5") {
		t.Fatalf("bus drops missing from exposition:\n%s", b.String())
	}

	// After the subscriber goes away, stats stop listing it.
	srv.untrackSub(id)
	resp = decode[StatsResponse](t, get(t, h, "/v1/stats"))
	if len(resp.Subscribers) != 0 {
		t.Fatalf("subscribers after untrack = %+v", resp.Subscribers)
	}
}
