package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// discardWriter is a ResponseWriter that allocates nothing: its header
// map is reused from request to request and its body goes nowhere.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// rewindBody is a request body that a test reloads before each run.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestSubmitHandlerAllocs pins the allocations of one handled submit, over
// a reused request and a writer that allocate nothing themselves, with the
// HTTP metrics on and an engine whose decisions allocate nothing: the
// middleware's one recorder and the generated request id. Decoding the
// body by reflection, or a header value slice of its own, pushes it past
// the bound.
func TestSubmitHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	accepted := service.Decision{Accepted: true, At: 1, Nodes: []int{0, 1},
		Starts: []float64{0, 0.5}, Alphas: []float64{0.5, 0.5}, Est: 100.25}
	eng := newStubEngine(func(t rt.Task) service.Decision {
		if t.ID == 2 {
			return service.Decision{TaskID: t.ID, At: 1, Reason: errs.ReasonInfeasible}
		}
		d := accepted
		d.TaskID = t.ID
		return d
	})
	srv, err := New(Config{Engine: eng, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, tc := range []struct {
		id     int64
		status int
	}{{1, http.StatusOK}, {2, errs.CodeInfeasible}} {
		raw, err := json.Marshal(TaskRequest{ID: tc.id, Sigma: 200, Deadline: 2800})
		if err != nil {
			t.Fatal(err)
		}
		body := new(rewindBody)
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", body)
		req.ContentLength = int64(len(raw))
		w := &discardWriter{header: http.Header{}}
		got := testing.AllocsPerRun(100, func() {
			body.Reset(raw)
			w.status = 0
			h.ServeHTTP(w, req)
		})
		if w.status != tc.status {
			t.Fatalf("submit %d = %d, want %d", tc.id, w.status, tc.status)
		}
		t.Logf("allocs per handled submit answered %d = %.1f", tc.status, got)
		const bound = 2 // 11 when encoding/json decoded the body
		if got > bound {
			t.Fatalf("allocs per handled submit answered %d = %.1f, want ≤ %d", tc.status, got, bound)
		}
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
			srv, err := New(Config{Engine: newStubEngine(tc.decide), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
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
			if !strings.Contains(logs.String(), "encode response") || !strings.Contains(logs.String(), "request_id=") {
				t.Fatalf("structured log missing the failure:\n%s", logs.String())
			}
		})
	}
}

// failingWriter is a ResponseWriter whose client has gone away: the
// status goes out, every body write fails.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestFailedWriteIsLogged checks that a response body the client never
// received leaves an error record, with the request id, on the structured
// logger — the only logger the server has.
func TestFailedWriteIsLogged(t *testing.T) {
	var logs bytes.Buffer
	srv, err := New(Config{Engine: newStubEngine(scriptedDecision), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	srv.Handler().ServeHTTP(failingWriter{httptest.NewRecorder()}, submitRequest(t, 1))
	out := logs.String()
	for _, want := range []string{"level=ERROR", `msg="write response"`, `error="broken pipe"`, "request_id="} {
		if !strings.Contains(out, want) {
			t.Fatalf("log has no %s:\n%s", want, out)
		}
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
