// Package server puts the admission-control engine on the wire: an
// HTTP/JSON front end over the same Engine surface the in-process API
// exposes, so the paper's schedulability test is reachable from any
// language and measurable under real network load.
//
// The wire contract (all request/response bodies are JSON):
//
//	POST /v1/submit        one task  → one decision
//	POST /v1/submit/batch  {"tasks": [...]} → {"decisions": [...]}
//	GET  /v1/stats         aggregate admission/cluster snapshot
//	GET  /v1/events        Server-Sent Events stream of accept/reject/
//	                       commit events (plus explicit "gap" notices when
//	                       the subscriber lost events)
//	GET  /healthz          liveness + readiness: 200 while accepting, 503
//	                       with {"draining": true} once the admission gate
//	                       closes (SetAccepting(false) or Drain)
//	GET  /metrics          Prometheus text exposition (when a metrics
//	                       registry is configured)
//	POST /v1/nodes/{id}/{action}
//	                       fleet admin: action is "drain", "fail" or
//	                       "restore"; {id} is the engine-wide node id
//	                       (shard-major on a pool). Returns the fleet
//	                       result — node, new state, tasks displaced and
//	                       re-admitted — with 200; an unknown node or
//	                       action is 400. Current per-node states appear
//	                       in /v1/stats as "node_states".
//
// Response status codes are exactly the stable wire codes of
// internal/errs: an accepted submission is 200; a clean rejection carries
// the decision body under the reason's code (422 infeasible, 410 deadline
// past, 429 busy); malformed input is 400. Busy rejections (and the 503
// during drain) carry a Retry-After header derived from the engine's
// current queue slack — the next pending commit instant converted to wall
// seconds — so well-behaved clients back off for exactly as long as the
// backlog needs to move.
//
// Shutdown is graceful: Drain flips the engine's admission gate (new
// submissions bounce with 503 + Retry-After), pumps every committed-but-
// waiting plan, then closes the engine, which ends every event stream.
// No accepted task is ever lost to a SIGTERM.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtdls/internal/errs"
	"rtdls/internal/fleet"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// Engine is the admission surface the server fronts. pool.Pool, which the
// public API exports as rtdls.Service, satisfies it.
type Engine interface {
	Submit(ctx context.Context, t rt.Task) (service.Decision, error)
	SubmitBatch(ctx context.Context, tasks []rt.Task) ([]service.Decision, error)
	Subscribe(buffer int) *service.Subscription
	Stats() service.Stats
	NextCommit() (at float64, ok bool)
	SetAccepting(accepting bool)
	Accepting() bool
	Drain() error
	Close() error
	Clock() service.Clock
	SetNodeState(node int, st service.NodeState) (service.FleetResult, error)
	NodeStates() []service.NodeState
}

// Config assembles a Server. Engine is mandatory.
type Config struct {
	Engine Engine

	// Scale is the engine clock's simulation-time units per wall second
	// (the value passed to NewWallClock). It converts queue slack into
	// Retry-After seconds; <= 0 defaults to 1.
	Scale float64

	// MaxBody bounds a request body in bytes (default 1 MiB).
	MaxBody int64

	// MaxBatch bounds the task count of one batch submission (default
	// 4096); larger batches are refused with 413.
	MaxBatch int

	// MaxRetryAfter caps the advertised Retry-After in seconds (default
	// 60).
	MaxRetryAfter float64

	// Version is reported by /v1/stats (e.g. rtdls.Version).
	Version string

	// Logger, when non-nil, receives structured request and lifecycle
	// records (method, route, status, duration, request_id) and every
	// response the server failed to encode or write. Nil logs nothing.
	Logger *slog.Logger

	// Metrics, when non-nil, is served at GET /metrics and additionally
	// records the server's own HTTP metrics (rtdls_http_requests_total,
	// rtdls_http_request_seconds) and the rtdls_info gauge. Pass the same
	// registry the engine was instrumented with to get one exposition.
	Metrics *metrics.Registry
}

// Server is the HTTP front end. Construct with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	eng           Engine
	scale         float64
	maxBody       int64
	maxBatch      int
	maxRetryAfter float64
	version       string
	logger        *slog.Logger
	reg           *metrics.Registry
	httpInst      *[len(routes)]routeInstruments // nil without a registry
	start         time.Time

	draining atomic.Bool
	requests atomic.Int64
	fivexx   atomic.Int64

	// Active SSE subscriptions, keyed by a server-assigned id, so
	// /v1/stats can surface each subscriber's own drop count.
	subMu  sync.Mutex
	subSeq int64
	subs   map[int64]*service.Subscription
}

// New validates the configuration and returns a ready server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: nil engine: %w", errs.ErrBadConfig)
	}
	if cfg.Scale <= 0 || math.IsNaN(cfg.Scale) || math.IsInf(cfg.Scale, 0) {
		cfg.Scale = 1
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 60
	}
	s := &Server{
		eng:           cfg.Engine,
		scale:         cfg.Scale,
		maxBody:       cfg.MaxBody,
		maxBatch:      cfg.MaxBatch,
		maxRetryAfter: cfg.MaxRetryAfter,
		version:       cfg.Version,
		logger:        cfg.Logger,
		reg:           cfg.Metrics,
		start:         time.Now(),
		subs:          make(map[int64]*service.Subscription),
	}
	if s.reg != nil {
		s.httpInst = new([len(routes)]routeInstruments)
		s.reg.Gauge("rtdls_info",
			"Constant 1, labeled with the server build version.",
			metrics.Labels{"version": s.version}).Set(1)
	}
	return s, nil
}

// Handler returns the server's routed handler with the standard middleware
// (panic recovery, 5xx accounting, per-request deadline propagation)
// applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/submit/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/nodes/{id}/{action}", s.handleNodeOp)
	if s.reg != nil {
		mux.Handle("GET /metrics", s.reg)
	}
	return s.middleware(mux)
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Requests returns how many HTTP requests the server has handled and how
// many of them ended in a 5xx status.
func (s *Server) Requests() (total, fivexx int64) {
	return s.requests.Load(), s.fivexx.Load()
}

// Drain performs the graceful-shutdown sequence: stop accepting (both at
// the HTTP layer and at the engine's admission gate), commit every waiting
// plan, then close the engine, which flushes and terminates every event
// subscriber. Safe to call once; the ctx bounds only the caller's
// patience — the engine drain itself is not abortable halfway (a plan is
// either committed or still queued, never lost).
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	s.sayf("drain: admission gate closed, pumping committed work")
	s.eng.SetAccepting(false)
	done := make(chan error, 1)
	go func() { done <- s.eng.Drain() }()
	var err error
	select {
	case err = <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	st := s.eng.Stats()
	s.sayf("drain: done (accepts=%d commits=%d queue=%d err=%v)",
		st.Accepts, st.Commits, st.QueueLen, err)
	return err
}

// sayf emits one lifecycle line through the structured logger, if any.
func (s *Server) sayf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Info(fmt.Sprintf(format, args...))
	}
}

// retryAfterSeconds derives the Retry-After hint from the engine's current
// queue slack: the earliest pending commit instant, converted from
// simulation units to wall seconds. With nothing queued (or the commit
// already due) the floor of one second applies, so clients never busy-loop.
func (s *Server) retryAfterSeconds() float64 {
	now := s.eng.Clock().Now()
	secs := 1.0
	if at, ok := s.eng.NextCommit(); ok && at > now {
		secs = (at - now) / s.scale
	}
	if secs < 1 {
		secs = 1
	}
	if secs > s.maxRetryAfter {
		secs = s.maxRetryAfter
	}
	return secs
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	var req TaskRequest
	if !s.decodeTask(w, r, &req) {
		return
	}
	task, err := req.Task()
	if err != nil {
		s.writeError(w, err)
		return
	}
	dec, err := s.eng.Submit(r.Context(), task)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeDecision(w, dec)
}

// handleSubmitBatch serves POST /v1/submit/batch. On a hard error the body
// still carries every decision the engine made, in input order, under the
// error's status; the client resubmits the tasks that have no decision.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	var req BatchRequest
	if !s.decodeBody(w, http.MaxBytesReader(w, r.Body, s.maxBody), &req) {
		return
	}
	if len(req.Tasks) == 0 {
		s.writeError(w, fmt.Errorf("server: empty batch: %w", errs.ErrBadConfig))
		return
	}
	if len(req.Tasks) > s.maxBatch {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error:  fmt.Sprintf("server: batch of %d exceeds limit %d", len(req.Tasks), s.maxBatch),
			Code:   http.StatusRequestEntityTooLarge,
			Reason: errs.ReasonBadRequest,
		})
		return
	}
	tasks := make([]rt.Task, len(req.Tasks))
	for i, tr := range req.Tasks {
		t, err := tr.Task()
		if err != nil {
			s.writeError(w, fmt.Errorf("server: batch task %d: %w", i, err))
			return
		}
		tasks[i] = t
	}
	decs, err := s.eng.SubmitBatch(r.Context(), tasks)
	resp := BatchResponse{Decisions: make([]DecisionResponse, len(decs))}
	for i, d := range decs {
		resp.Decisions[i] = decisionResponse(d, s)
		if d.Accepted {
			resp.Accepted++
		} else {
			resp.Rejected++
		}
	}
	if err != nil {
		resp.Error = err.Error()
		resp.ErrorReason = errs.ReasonFor(err)
		s.writeJSON(w, errs.Code(err), resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	total, fivexx := s.Requests()
	resp := StatsResponse{
		Stats:         st,
		Version:       s.version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		HTTPRequests:  total,
		HTTP5xx:       fivexx,
		RejectRatio:   st.RejectRatio(),
	}
	if at, ok := s.eng.NextCommit(); ok {
		resp.NextCommit = &at
	}
	resp.Subscribers = s.subscriberStats()
	resp.NodeStates = s.eng.NodeStates()
	s.writeJSON(w, http.StatusOK, resp)
}

// handleNodeOp serves the fleet admin surface: POST /v1/nodes/{id}/{action}
// with action drain, fail or restore. The operation is applied through the
// engine (on a pool the node id is shard-major and displaced tasks are
// re-admitted on other shards); the response is the fleet result. Bad ids
// and unknown actions map to 400 via errs.ErrBadConfig.
func (s *Server) handleNodeOp(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeError(w, fmt.Errorf("server: bad node id %q: %w", r.PathValue("id"), errs.ErrBadConfig))
		return
	}
	st, err := fleet.ParseVerb(r.PathValue("action"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, err := s.eng.SetNodeState(id, st)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.sayf("fleet: node %d -> %s (displaced=%d readmitted=%d)", res.Node, res.State, res.Displaced, res.Readmitted)
	s.writeJSON(w, http.StatusOK, res)
}

// handleHealthz is the liveness + readiness probe. Readiness follows the
// engine's lock-free admission gate, not just the server's own drain flag:
// an engine whose gate was closed directly (SetAccepting(false)) reports
// draining too, so load balancers stop routing before the first 503'd
// submission.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || !s.eng.Accepting() {
		s.writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining", Draining: true})
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// trackSub registers an active SSE subscription for /v1/stats visibility
// and returns its server-assigned id.
func (s *Server) trackSub(sub *service.Subscription) int64 {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	s.subSeq++
	s.subs[s.subSeq] = sub
	return s.subSeq
}

func (s *Server) untrackSub(id int64) {
	s.subMu.Lock()
	delete(s.subs, id)
	s.subMu.Unlock()
}

// subscriberStats snapshots every active subscriber's drop count, ordered
// by subscription id.
func (s *Server) subscriberStats() []SubscriberStats {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	out := make([]SubscriberStats, 0, len(s.subs))
	for id, sub := range s.subs {
		out = append(out, SubscriberStats{ID: id, Dropped: sub.Dropped()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeUnavailable answers a submission received while draining: 503 with
// a Retry-After so load balancers and clients move on promptly.
func (s *Server) writeUnavailable(w http.ResponseWriter) {
	secs := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(secs))))
	s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		Error:      "server: draining, not accepting submissions",
		Code:       http.StatusServiceUnavailable,
		Reason:     errs.ReasonBusy,
		RetryAfter: secs,
	})
}

// writeDecision maps a clean decision onto the wire: 200 for an accept,
// the reason's stable code for a rejection, with Retry-After on busy. The
// body comes from the hand encoder; whatever it declines (a non-finite
// number, a string that needs escaping) goes through writeJSON.
func (s *Server) writeDecision(w http.ResponseWriter, d service.Decision) {
	resp := decisionResponse(d, s)
	status := http.StatusOK
	if !d.Accepted {
		status = d.Reason.Code()
		if status == errs.CodeBusy {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(resp.RetryAfter))))
		}
	}
	buf := getBuffer()
	defer putBuffer(buf)
	b, ok := appendDecision(buf.AvailableBuffer(), &resp)
	if !ok {
		s.writeJSON(w, status, resp)
		return
	}
	buf.Write(b) // keeps a grown b for the buffer's next use
	s.writeBody(w, status, buf.Bytes())
}

// writeError maps a hard error (malformed input, closed/draining engine,
// cancelled context) onto its stable wire code.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := errs.Code(err)
	resp := ErrorResponse{Error: err.Error(), Code: code, Reason: errs.ReasonFor(err)}
	if code == errs.CodeBusy {
		resp.RetryAfter = s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(resp.RetryAfter))))
	}
	s.writeJSON(w, code, resp)
}

// decodeBody decodes body, which must hold one JSON value and nothing after
// it but whitespace, into into by reflection, with strict field checking:
// the path of every batch, and of each submit body that decodeTask does
// not parse itself. Reached through http.MaxBytesReader, a body over the
// size bound is a 413, which closes the connection instead of reading on
// through the rest of the body. On failure it writes the 400 (or the 413)
// and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, body io.Reader, into any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil || errors.As(err, new(*json.SyntaxError)) {
			err = errors.New("data after the JSON value")
		}
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		// The middleware's recorder hides net/http's own close-after-reply
		// hook for MaxBytesReader.
		w.Header().Set("Connection", "close")
		s.writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error:  fmt.Sprintf("server: body exceeds %d bytes", maxErr.Limit),
			Code:   http.StatusRequestEntityTooLarge,
			Reason: errs.ReasonBadRequest,
		})
		return false
	}
	s.writeError(w, fmt.Errorf("server: malformed request body: %v: %w", err, errs.ErrBadConfig))
	return false
}

// writeJSON encodes body before writing anything, so a body that cannot
// be encoded (a NaN or an infinity) becomes a 500 with an ErrorResponse
// instead of an empty response under the intended status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		s.encodeFailed(w, err)
		return
	}
	s.writeBody(w, status, buf.Bytes())
}

// encodeFailed logs a response that could not be encoded and answers 500
// in its place; the middleware counts the 500 like any other.
func (s *Server) encodeFailed(w http.ResponseWriter, err error) {
	if s.logger != nil {
		s.logger.Error("encode response", slog.String("error", err.Error()),
			slog.String("request_id", w.Header().Get(RequestIDHeader)))
	}
	w.Header().Del("Retry-After")
	s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{
		Error:  "server: encoding response: " + err.Error(),
		Code:   http.StatusInternalServerError,
		Reason: errs.ReasonInternal,
	})
}

// jsonContentType is shared by every JSON response; assigning it skips
// the key canonicalization and slice allocation of Header().Set.
var jsonContentType = []string{"application/json"}

func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil && s.logger != nil {
		s.logger.Error("write response", slog.String("error", err.Error()),
			slog.String("request_id", w.Header().Get(RequestIDHeader)))
	}
}
