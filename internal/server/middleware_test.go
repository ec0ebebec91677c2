package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rtdls/internal/errs"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// stubEngine answers every submission with decide(task) and implements only
// what the submit and health paths reach; the embedded nil Engine panics
// on anything else.
type stubEngine struct {
	Engine
	decide func(rt.Task) service.Decision
	clock  *service.ManualClock
}

func newStubEngine(decide func(rt.Task) service.Decision) *stubEngine {
	return &stubEngine{decide: decide, clock: service.NewManualClock(0)}
}

func (e *stubEngine) Submit(_ context.Context, t rt.Task) (service.Decision, error) {
	return e.decide(t), nil
}
func (e *stubEngine) Clock() service.Clock        { return e.clock }
func (e *stubEngine) NextCommit() (float64, bool) { return 0, false }
func (e *stubEngine) Accepting() bool             { return true }
func (e *stubEngine) SubmitBatch(context.Context, []rt.Task) ([]service.Decision, error) {
	return nil, nil
}

// scriptedDecision accepts id 1, rejects id 2 as infeasible, and id 3 as
// busy; any other id is accepted.
func scriptedDecision(t rt.Task) service.Decision {
	d := service.Decision{TaskID: t.ID, At: 1}
	switch t.ID {
	case 2:
		d.Reason = errs.ReasonInfeasible
	case 3:
		d.Reason = errs.ReasonBusy
	default:
		d.Accepted = true
		d.Nodes, d.Starts, d.Alphas, d.Est = []int{0, 1}, []float64{0, 0.5}, []float64{0.5, 0.5}, 100.25
	}
	return d
}

func submitRequest(t testing.TB, id int64) *http.Request {
	t.Helper()
	raw, err := json.Marshal(TaskRequest{ID: id, Sigma: 200, Deadline: 2800})
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(raw))
}

// TestSubmitHandlerAllocs pins the allocations of one handled submit,
// request and recorder built outside the measurement. Looking the HTTP
// instruments up in the registry on every request, or building a label
// escaper per lookup, pushes it far past the bound.
func TestSubmitHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	srv, err := New(Config{Engine: newStubEngine(scriptedDecision), Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const runs = 100
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		reqs[i], recs[i] = submitRequest(t, 1), httptest.NewRecorder()
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[i], reqs[i])
		i++
	})
	if recs[0].Code != http.StatusOK {
		t.Fatalf("submit = %d %s", recs[0].Code, recs[0].Body)
	}
	t.Logf("allocs per handled submit = %.1f", got)
	const measured = 19 // 53 when both instruments were looked up per request
	if got > measured+2 {
		t.Fatalf("allocs per handled submit = %.1f, want ≤ %d", got, measured+2)
	}
}

var httpSeries = regexp.MustCompile(`(?m)^(rtdls_http_requests_total\{.*\} \d+|rtdls_http_request_seconds_count\{.*\} \d+)$`)

// httpExposition returns the sorted rtdls_http_* request counters and
// histogram counts of reg's exposition.
func httpExposition(t *testing.T, reg *metrics.Registry) []string {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	lines := httpSeries.FindAllString(b.String(), -1)
	sort.Strings(lines)
	return lines
}

// TestHTTPExpositionMatchesLookup drives a scripted request mix and checks,
// after every request, that the rtdls_http_* series and their values are
// exactly what registering both instruments on every request produces: no
// route has a series before its first request, and every count is right.
func TestHTTPExpositionMatchesLookup(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := New(Config{Engine: newStubEngine(scriptedDecision), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	ref := metrics.NewRegistry()
	if got := httpExposition(t, reg); len(got) != 0 {
		t.Fatalf("series before any request: %v", got)
	}
	mix := []struct {
		req    *http.Request
		route  string
		status int
	}{
		{submitRequest(t, 1), "/v1/submit", 200},
		{submitRequest(t, 2), "/v1/submit", 422},
		{submitRequest(t, 3), "/v1/submit", 429},
		{submitRequest(t, 1), "/v1/submit", 200},
		{httptest.NewRequest(http.MethodGet, "/no/such/path", nil), "other", 404},
		{httptest.NewRequest(http.MethodGet, "/healthz", nil), "/healthz", 200},
		{httptest.NewRequest(http.MethodGet, "/metrics", nil), "/metrics", 200},
		{httptest.NewRequest(http.MethodGet, "/metrics", nil), "/metrics", 200},
		{submitRequest(t, 2), "/v1/submit", 422},
	}
	for i, m := range mix {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, m.req)
		if w.Code != m.status {
			t.Fatalf("request %d %s = %d, want %d", i, m.req.URL.Path, w.Code, m.status)
		}
		ref.Counter("rtdls_http_requests_total", "HTTP requests by route and status code.",
			metrics.Labels{"route": m.route, "status": strconv.Itoa(m.status)}).Inc()
		ref.Histogram("rtdls_http_request_seconds", "HTTP request duration in seconds by route.",
			metrics.Labels{"route": m.route}).Observe(1e-3)
		got, want := httpExposition(t, reg), httpExposition(t, ref)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("after request %d:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestConcurrentFirstRequests races many first requests on one (route,
// status) slot; every one of them must land in the one counter.
func TestConcurrentFirstRequests(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := New(Config{Engine: newStubEngine(scriptedDecision), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const n = 64
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			start.Wait()
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	start.Done()
	done.Wait()
	c := reg.Counter("rtdls_http_requests_total", "HTTP requests by route and status code.",
		metrics.Labels{"route": "/healthz", "status": "200"})
	if got := c.Value(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	hist := reg.Histogram("rtdls_http_request_seconds", "HTTP request duration in seconds by route.",
		metrics.Labels{"route": "/healthz"})
	if got := hist.Count(); got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
}

// TestUnencodableDecisionAnswers500 checks that a decision encoding/json
// cannot encode goes out as a counted, logged 500 with an ErrorResponse,
// not as an empty body under the decision's status.
func TestUnencodableDecisionAnswers500(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decide func(rt.Task) service.Decision
	}{
		{"accept +Inf est", func(t rt.Task) service.Decision {
			d := scriptedDecision(t)
			d.Est = math.Inf(1)
			return d
		}},
		{"busy NaN start", func(t rt.Task) service.Decision {
			return service.Decision{TaskID: t.ID, Reason: errs.ReasonBusy, Starts: []float64{math.NaN()}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			var lines []string
			for _, cfg := range []Config{
				{Engine: newStubEngine(tc.decide), Logger: slog.New(slog.NewTextHandler(&logs, nil))},
				{Engine: newStubEngine(tc.decide), Logf: func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) }},
			} {
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				srv.Handler().ServeHTTP(w, submitRequest(t, 1))
				if w.Code != http.StatusInternalServerError {
					t.Fatalf("status = %d, body %q", w.Code, w.Body)
				}
				if ra := w.Header().Get("Retry-After"); ra != "" {
					t.Fatalf("Retry-After %q on a 500", ra)
				}
				resp := decode[ErrorResponse](t, w)
				if resp.Code != 500 || resp.Reason != errs.ReasonInternal || !strings.Contains(resp.Error, "unsupported value") {
					t.Fatalf("body = %+v", resp)
				}
				if total, fivexx := srv.Requests(); total != 1 || fivexx != 1 {
					t.Fatalf("Requests() = %d, %d; want 1, 1", total, fivexx)
				}
			}
			if !strings.Contains(logs.String(), "encode response") || !strings.Contains(logs.String(), "request_id=") {
				t.Fatalf("structured log missing the failure:\n%s", logs.String())
			}
			if len(lines) == 0 || !strings.HasPrefix(lines[0], "encode response: ") {
				t.Fatalf("printf log missing the failure: %q", lines)
			}
		})
	}
}

// TestGeneratedRequestIDs checks the generated id format: 16 lowercase hex
// characters, the process's prefix, then a counter that advances by one.
func TestGeneratedRequestIDs(t *testing.T) {
	a, b := newRequestID(), newRequestID()
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	if !hex16.MatchString(a) || !hex16.MatchString(b) {
		t.Fatalf("ids %q, %q: want 16 lowercase hex characters", a, b)
	}
	if a[:8] != string(requestIDPrefix[:]) || b[:8] != a[:8] {
		t.Fatalf("ids %q, %q: want the process prefix %q", a, b, requestIDPrefix)
	}
	na, _ := strconv.ParseUint(a[8:], 16, 32)
	nb, _ := strconv.ParseUint(b[8:], 16, 32)
	if uint32(nb) != uint32(na)+1 {
		t.Fatalf("ids %q, %q: counter did not advance by one", a, b)
	}
}
