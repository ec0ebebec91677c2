package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

var baseline = dlt.Params{Cms: 1, Cps: 100}

// newTestServer builds a server over a fresh 16-node engine. The returned
// clock lets tests drive time explicitly.
func newTestServer(t *testing.T, opts ...func(*service.Config)) (*Server, *service.Service, *service.ManualClock) {
	t.Helper()
	cl, err := cluster.New(16, baseline)
	if err != nil {
		t.Fatal(err)
	}
	clock := service.NewManualClock(0)
	cfg := service.Config{Cluster: cl, Policy: rt.EDF, Partitioner: rt.IITDLT{}, Clock: clock}
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Scale: 1000, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return srv, eng, clock
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return out
}

func TestSubmitAccepted(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.Handler()
	w := postJSON(t, h, "/v1/submit", TaskRequest{ID: 1, Sigma: 200, Deadline: 2800})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	d := decode[DecisionResponse](t, w)
	if !d.Accepted || d.Code != errs.CodeOK || d.Reason != errs.ReasonNone {
		t.Fatalf("decision = %+v", d)
	}
	if len(d.Nodes) == 0 || len(d.Nodes) != len(d.Starts) || len(d.Nodes) != len(d.Alphas) || d.Est <= 0 {
		t.Fatalf("plan missing from accepted decision: %+v", d)
	}
}

func TestSubmitRejectionStatuses(t *testing.T) {
	srv, _, clock := newTestServer(t)
	h := srv.Handler()
	clock.Set(1000)

	// Deadline already past → 410 with the stable token.
	w := postJSON(t, h, "/v1/submit", TaskRequest{ID: 1, Arrival: 10, Sigma: 10, Deadline: 20})
	if w.Code != errs.CodeDeadlinePast {
		t.Fatalf("deadline-past status = %d, body %s", w.Code, w.Body)
	}
	if d := decode[DecisionResponse](t, w); d.Reason != errs.ReasonDeadlinePast || d.Code != errs.CodeDeadlinePast {
		t.Fatalf("decision = %+v", d)
	}

	// Infeasible → 422.
	w = postJSON(t, h, "/v1/submit", TaskRequest{ID: 2, Sigma: 1e6, Deadline: 1})
	if w.Code != errs.CodeInfeasible {
		t.Fatalf("infeasible status = %d, body %s", w.Code, w.Body)
	}
	if d := decode[DecisionResponse](t, w); d.Reason != errs.ReasonInfeasible {
		t.Fatalf("decision = %+v", d)
	}
}

func TestSubmitBusyCarriesRetryAfter(t *testing.T) {
	srv, _, _ := newTestServer(t, func(c *service.Config) { c.MaxQueue = 1 })
	h := srv.Handler()
	// Saturate the cluster, then fill the one queue slot; the third task
	// must bounce with 429.
	tight := baseline.ExecTime(400, 16) * 1.01
	w := postJSON(t, h, "/v1/submit", TaskRequest{ID: 1, Sigma: 400, Deadline: tight})
	if w.Code != http.StatusOK {
		t.Fatalf("first submit: %d %s", w.Code, w.Body)
	}
	w = postJSON(t, h, "/v1/submit", TaskRequest{ID: 2, Sigma: 50, Deadline: 50000})
	if w.Code != http.StatusOK {
		t.Fatalf("second submit: %d %s", w.Code, w.Body)
	}
	w = postJSON(t, h, "/v1/submit", TaskRequest{ID: 3, Sigma: 50, Deadline: 50000})
	if w.Code != errs.CodeBusy {
		t.Fatalf("third submit status = %d, body %s", w.Code, w.Body)
	}
	ra := w.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q", ra)
	}
	d := decode[DecisionResponse](t, w)
	if d.Reason != errs.ReasonBusy || d.RetryAfter <= 0 {
		t.Fatalf("decision = %+v", d)
	}
	// The hint derives from queue slack: task 2 starts when task 1's
	// window ends, so at scale 1000 the advertised wait is bounded by the
	// remaining sim time / 1000 (and by the 60 s cap).
	if d.RetryAfter > 60 {
		t.Fatalf("retry_after %v above cap", d.RetryAfter)
	}
}

// TestSubmitMalformed: a body that is not one well-formed request is a
// 400 — on both submit endpoints, for bytes after the JSON value too.
func TestSubmitMalformed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.Handler()

	const task, batch = `{"sigma":200,"deadline":2800}`, `{"tasks":[{"sigma":200,"deadline":2800}]}`
	for _, tc := range []struct{ name, path, body string }{
		{"bad json", "/v1/submit", "{not json"},
		{"unknown field", "/v1/submit", `{"sigma": 10, "deadline": 100, "bogus": 1}`},
		{"bad sigma", "/v1/submit", `{"sigma": -5, "deadline": 100}`},
		{"trailing bytes", "/v1/submit", task + " x"},
		{"two values", "/v1/submit", task + task},
		{"trailing bytes", "/v1/submit/batch", batch + " x"},
		{"two values", "/v1/submit/batch", batch + batch},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status = %d, body %s", tc.path, tc.name, w.Code, w.Body)
		}
		if e := decode[ErrorResponse](t, w); e.Reason != errs.ReasonBadRequest || e.Code != errs.CodeBadRequest {
			t.Errorf("%s %s: error body = %+v", tc.path, tc.name, e)
		}
	}
}

func TestSubmitBatchMixed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.Handler()
	w := postJSON(t, h, "/v1/submit/batch", BatchRequest{Tasks: []TaskRequest{
		{ID: 1, Sigma: 200, Deadline: 2800},
		{ID: 2, Sigma: 1e6, Deadline: 1},
		{ID: 3, Sigma: 100, Deadline: 5000},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	b := decode[BatchResponse](t, w)
	if len(b.Decisions) != 3 || b.Accepted != 2 || b.Rejected != 1 {
		t.Fatalf("batch = %+v", b)
	}
	if b.Decisions[1].Reason != errs.ReasonInfeasible {
		t.Fatalf("middle decision = %+v", b.Decisions[1])
	}
}

func TestBatchLimit(t *testing.T) {
	srv, _, _ := newTestServer(t)
	srv.maxBatch = 2
	h := srv.Handler()
	w := postJSON(t, h, "/v1/submit/batch", BatchRequest{Tasks: make([]TaskRequest, 3)})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.Handler()
	postJSON(t, h, "/v1/submit", TaskRequest{ID: 1, Sigma: 200, Deadline: 2800})
	postJSON(t, h, "/v1/submit", TaskRequest{ID: 2, Sigma: 1e6, Deadline: 1})

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != 2 || st.Accepts != 1 || st.Rejects != 1 || st.Version != "test" {
		t.Fatalf("stats = %+v", st)
	}
	if st.HTTPRequests < 3 || st.HTTP5xx != 0 {
		t.Fatalf("request accounting = %d/%d", st.HTTPRequests, st.HTTP5xx)
	}
}

func TestTimeoutHeaderPropagatesDeadline(t *testing.T) {
	srv, _, _ := newTestServer(t)
	h := srv.Handler()
	raw, _ := json.Marshal(TaskRequest{ID: 1, Sigma: 200, Deadline: 2800})
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(raw))
	// An already-expired budget: the context deadline passes before the
	// engine is reached, so the submission returns the cancellation code
	// without touching the scheduler.
	req.Header.Set(TimeoutHeader, "0.000000001")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != errs.CodeCancelled {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if st := srv.eng.Stats(); st.Arrivals != 0 {
		t.Fatalf("cancelled request reached the scheduler: %+v", st)
	}
}

// TestTimeoutHeaderBeyondDurationIsNoDeadline: a budget too long for a
// time.Duration, +Inf included, used to overflow into a negative timeout
// that cancelled the request before the engine saw it. It now means no
// deadline, so the submission is decided.
func TestTimeoutHeaderBeyondDurationIsNoDeadline(t *testing.T) {
	for i, budget := range []string{"1e10", "Inf", "9.3e9"} {
		srv, _, _ := newTestServer(t)
		raw, _ := json.Marshal(TaskRequest{ID: int64(i + 1), Sigma: 200, Deadline: 2800})
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(raw))
		req.Header.Set(TimeoutHeader, budget)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Code == errs.CodeCancelled {
			t.Fatalf("budget %s: cancelled before the engine: %d %s", budget, w.Code, w.Body)
		}
		if st := srv.eng.Stats(); st.Arrivals != 1 {
			t.Fatalf("budget %s: status %d, %d arrivals reached the scheduler, want 1", budget, w.Code, st.Arrivals)
		}
	}
}

// TestDrainLosesNoCommittedTask is the acceptance property of graceful
// shutdown: every task accepted before SIGTERM is committed by the drain,
// and post-drain submissions are refused with 503 + Retry-After.
func TestDrainLosesNoCommittedTask(t *testing.T) {
	srv, eng, _ := newTestServer(t)
	h := srv.Handler()
	accepted := 0
	for i := 1; i <= 8; i++ {
		w := postJSON(t, h, "/v1/submit", TaskRequest{ID: int64(i), Sigma: 150, Deadline: 1e6})
		if w.Code == http.StatusOK {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no task accepted")
	}
	if st := eng.Stats(); st.QueueLen == 0 {
		t.Fatalf("want a non-empty waiting queue before drain, got %+v", st)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Commits != st.Accepts || st.QueueLen != 0 {
		t.Fatalf("drain lost committed work: %+v", st)
	}

	// New submissions bounce with 503 and a Retry-After.
	w := postJSON(t, h, "/v1/submit", TaskRequest{ID: 99, Sigma: 100, Deadline: 1e6})
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("post-drain submit: %d, Retry-After %q", w.Code, w.Header().Get("Retry-After"))
	}
	// Health flips to draining.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d", rw.Code)
	}
	// Drain is idempotent.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEventStream exercises the SSE surface end to end over a real
// connection: accept/reject/commit events arrive with stable reason
// tokens, and a drain terminates the stream with an "end" event.
func TestEventStream(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/events?buffer=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Submissions over the same server; the subscriber must see them.
	client := ts.Client()
	submit := func(tr TaskRequest) {
		raw, _ := json.Marshal(tr)
		r, err := client.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	submit(TaskRequest{ID: 1, Sigma: 200, Deadline: 2800})
	submit(TaskRequest{ID: 2, Sigma: 1e6, Deadline: 1})

	done := make(chan error, 1)
	go func() { done <- srv.Drain(context.Background()) }()

	kinds := map[string]int{}
	var rejectData EventResponse
	sc := bufio.NewScanner(resp.Body)
	var current string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
			kinds[current]++
		case strings.HasPrefix(line, "data: ") && current == "reject":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rejectData); err != nil {
				t.Errorf("reject data: %v", err)
			}
		}
		if current == "end" {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if kinds["accept"] != 1 || kinds["reject"] != 1 || kinds["commit"] != 1 || kinds["end"] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
	if rejectData.Reason != errs.ReasonInfeasible || rejectData.Code != errs.CodeInfeasible {
		t.Fatalf("reject event = %+v", rejectData)
	}
}

// TestWireReasonTokensStable pins the serialized form of a decision: the
// reason token in the JSON body must round-trip through ParseReason and
// match the event-stream encoding byte for byte.
func TestWireReasonTokensStable(t *testing.T) {
	srv, _, clock := newTestServer(t)
	h := srv.Handler()
	clock.Set(500)
	w := postJSON(t, h, "/v1/submit", TaskRequest{ID: 7, Arrival: 1, Sigma: 5, Deadline: 10})
	var raw map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	tok, _ := raw["reason"].(string)
	parsed, err := errs.ParseReason(tok)
	if err != nil || parsed != errs.ReasonDeadlinePast {
		t.Fatalf("wire token %q did not round-trip: %v", tok, err)
	}
	if fmt.Sprint(raw["code"]) != strconv.Itoa(errs.CodeDeadlinePast) {
		t.Fatalf("wire code = %v", raw["code"])
	}
}
