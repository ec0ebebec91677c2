package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"rtdls/internal/metrics"
)

// statusRecorder captures the response status for accounting and logging.
// It also backs the X-Request-ID header value, so that the recorder is the
// one allocation a request makes in the middleware besides a generated id.
type statusRecorder struct {
	http.ResponseWriter
	status int
	id     [1]string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the SSE handler still sees an
// http.Flusher through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TimeoutHeader is the request header carrying a per-request deadline in
// wall seconds (a float, e.g. "0.25"). The server propagates it as a
// context deadline, so a submission abandoned by its client stops before
// taking a shard's lock and returns 499.
const TimeoutHeader = "X-Request-Timeout"

// RequestIDHeader carries the request correlation id. A client-supplied id
// is echoed back verbatim; otherwise the server generates one. Every
// structured request log record carries it.
const RequestIDHeader = "X-Request-ID"

// requestIDKey is RequestIDHeader in canonical form, the key under which
// it sits in a Header map; indexing with it skips canonicalizing the name
// on every request.
var requestIDKey = http.CanonicalHeaderKey(RequestIDHeader)

// Generated request ids are a random per-process prefix of 8 hex
// characters followed by a per-process counter of 8 hex characters: unique
// within a process, distinct across restarts with overwhelming
// probability, and one atomic add instead of a crypto/rand read each.
var (
	requestIDPrefix = newRequestIDPrefix()
	requestIDSeq    atomic.Uint32
)

func newRequestIDPrefix() (p [8]byte) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	hex.Encode(p[:], b[:])
	return p
}

// newRequestID returns a 16-hex-char correlation id.
func newRequestID() string {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], requestIDSeq.Add(1))
	var id [16]byte
	copy(id[:8], requestIDPrefix[:])
	hex.Encode(id[8:], n[:])
	return string(id[:])
}

// routes is the server's fixed route set; the last entry, "other", labels
// every path outside it, so HTTP metrics stay bounded-cardinality no
// matter what clients request.
var routes = [...]string{"/v1/submit", "/v1/submit/batch", "/v1/stats", "/v1/events", "/healthz", "/metrics", "other"}

// routeIndex maps a request path onto its index in routes.
func routeIndex(path string) int {
	for i, r := range routes[:len(routes)-1] {
		if path == r {
			return i
		}
	}
	return len(routes) - 1
}

// Status codes 100-599 get a resolved counter slot; any other status
// takes the registry lookup on every request.
const (
	minSlotStatus = 100
	maxSlotStatus = 599
)

// routeInstruments holds one route's HTTP instruments, each resolved from
// the registry on the route's first request with that status and only
// read afterwards. A series therefore appears in the exposition exactly
// when it gets its first sample. Two racing first requests resolve the
// same instrument, since registration is idempotent.
type routeInstruments struct {
	seconds  atomic.Pointer[metrics.Histogram]
	byStatus [maxSlotStatus - minSlotStatus + 1]atomic.Pointer[metrics.Counter]
}

// observe records one finished request in the HTTP metrics.
func (s *Server) observe(path string, status int, elapsed time.Duration) {
	ri := routeIndex(path)
	ins := &s.httpInst[ri]
	var c *metrics.Counter
	if status >= minSlotStatus && status <= maxSlotStatus {
		slot := &ins.byStatus[status-minSlotStatus]
		if c = slot.Load(); c == nil {
			c = s.requestCounter(ri, status)
			slot.Store(c)
		}
	} else {
		c = s.requestCounter(ri, status)
	}
	c.Inc()
	h := ins.seconds.Load()
	if h == nil {
		h = s.reg.Histogram("rtdls_http_request_seconds",
			"HTTP request duration in seconds by route.",
			metrics.Labels{"route": routes[ri]})
		ins.seconds.Store(h)
	}
	h.Observe(elapsed.Seconds())
}

// requestCounter looks up the rtdls_http_requests_total series of one
// route and status in the registry.
func (s *Server) requestCounter(route, status int) *metrics.Counter {
	return s.reg.Counter("rtdls_http_requests_total",
		"HTTP requests by route and status code.",
		metrics.Labels{"route": routes[route], "status": strconv.Itoa(status)})
}

// middleware wraps the mux with panic recovery, request/5xx accounting,
// request-id propagation, optional structured logging, HTTP metrics, and
// per-request deadline propagation.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		s.requests.Add(1)

		var reqID string
		if v := r.Header[requestIDKey]; len(v) > 0 {
			reqID = v[0]
		}
		if reqID == "" {
			reqID = newRequestID()
		}
		rec.id[0] = reqID
		rec.Header()[requestIDKey] = rec.id[:]

		if v := r.Header.Get(TimeoutHeader); v != "" {
			// A budget too long for a Duration, +Inf among them, is no deadline.
			if secs, err := strconv.ParseFloat(v, 64); err == nil && secs > 0 && secs*float64(time.Second) < math.MaxInt64 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(secs*float64(time.Second)))
				defer cancel()
				r = r.WithContext(ctx)
			}
		}

		defer func() {
			if p := recover(); p != nil {
				if rec.status == 0 {
					http.Error(rec, "internal server error", http.StatusInternalServerError)
				}
				if s.logger != nil {
					s.logger.Error("panic",
						slog.String("method", r.Method), slog.String("path", r.URL.Path),
						slog.String("request_id", reqID), slog.Any("panic", p),
						slog.String("stack", string(debug.Stack())))
				}
			}
			if rec.status >= 500 {
				s.fivexx.Add(1)
			}
			elapsed := time.Since(start)
			if s.reg != nil {
				s.observe(r.URL.Path, rec.status, elapsed)
			}
			if s.logger != nil {
				s.logger.Info("request",
					slog.String("method", r.Method), slog.String("path", r.URL.Path),
					slog.Int("status", rec.status), slog.Duration("duration", elapsed),
					slog.String("request_id", reqID))
			}
		}()
		next.ServeHTTP(rec, r)
	})
}
